"""Delta propagation: the engine re-steps a (node, context) pair only
when a store read of its last step changed, and collects incrementally.

The result must be the least fixpoint all the same: it is compared
with the naive round-robin reference in oracles.py, each incremental
collection with a from-scratch one, and the step counts with their
purpose: full steps and dequeues per node that stay flat as call chains
grow, because a callee's stepped store holds none of its callers'
bindings.
"""

import random

import pytest

from anfj import engine as engine_module
from anfj import finite as finite_module
from anfj.domain import CallFrame, EPSILON, ObjPtr, Policy, Push
from anfj.engine import _Engine, _PushdownEngine, analyze
from anfj.finite import _FiniteEngine
from anfj.gc import Collection
from anfj.machine import Halted, run
from anfj.syntax import load_program

from helpers import (
    CHAINS, FANIN, chain_source, corpus_names, gen_module, named_program,
    stack_roots,
)
from oracles import collect, finite_stack_fps, reference_analysis
from test_byte_identity import POLICIES, analysis_digest

MODES = ("pushdown", "finite")


def assert_equals_reference(lp, policy):
    """The engine's result is the reference's: its stepped stores and
    push sources (and all else the outputs show) equal the
    reference's."""
    dsg, ref = analyze(lp, policy), reference_analysis(lp, policy)
    assert dsg.node_stores == ref.node_stores, policy
    assert analysis_digest(dsg) == analysis_digest(ref), policy


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS))
def test_engine_equals_reference_fixpoint(name):
    lp = named_program(name)
    for policy in POLICIES:
        assert_equals_reference(lp, policy)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [0, 1])
def test_engine_equals_reference_with_obj_sens_and_without_liveness(mode, k):
    lp = named_program("receiver_split")
    for policy in (Policy(k=k, mode=mode, obj_sensitivity=True),
                   Policy(k=k, mode=mode, liveness=False)):
        assert_equals_reference(lp, policy)


# M.m's second call puts the Box that B.mk returned on C.c's stack,
# after C.c's return point left out the field the Box binds: a root
# pointer new in a root set the pushdown engine must hand to a waiting
# collection
ROOT_GROWTH_WAKE = """
class Box extends Object { Object f; Box(Object f) { super(); this.f = f; } }
class B extends Object { B() { super(); }
  Object mk() { Object x; Box o; x = new Object(); o = new Box(x); return o; } }
class C extends Object { C() { super(); }
  Object c(B b) { Object t; Object u; t = b.mk(); u = new Object(); return u; } }
class M extends Object { M() { super(); }
  Object m(C c, B b, Object hold) { Object r; r = c.c(b); return hold; } }
class Main extends Object { Main() { super(); }
  Object main() { B b; C c; M m; Object x1; Object r1; Object h; Object r2;
    b = new B(); c = new C(); m = new M(); x1 = new Object();
    r1 = m.m(c, b, x1); h = b.mk(); r2 = m.m(c, b, h); return r2; } }
"""


def test_pushdown_root_growth_wakes_a_waiting_collection(monkeypatch):
    lp = load_program(ROOT_GROWTH_WAKE)
    outcome, _ = run(lp)
    assert isinstance(outcome, Halted)
    assert outcome.value.class_name == "Box"
    for policy in POLICIES:
        assert_equals_reference(lp, policy)
    handed = []
    extend = Collection.extend

    def spy(self, sigma, grown, fps):
        handed.extend(fps)
        return extend(self, sigma, grown, fps)
    monkeypatch.setattr(Collection, "extend", spy)
    stats = analyze(lp, Policy()).stats
    assert len(handed) == 1 and isinstance(handed[0], ObjPtr), handed
    assert lp.stmt(handed[0].site).exp.class_name == "Box"
    # the waiting node is already queued when the pointer arrives, so
    # the wake queues nothing and no step counts it as a cause
    assert stats["step_causes"]["gc_roots"] == 0


SPY_POLICIES = [Policy(k=k, mode=mode, liveness=live, obj_sensitivity=obj)
                for mode in MODES for k in (0, 1)
                for live, obj in ((True, False), (False, False), (True, True))]


@pytest.mark.parametrize("name", ["receiver_split", "throw_across_call",
                                  "deep_throw", "field_kept_alive",
                                  "handler_rethrow", "chain7"])
def test_incremental_collection_equals_from_scratch(name, monkeypatch):
    # stepped_store collects once per dequeue
    lp = named_program(name)
    seen = []
    stacks = {_PushdownEngine: lambda eng, s: stack_roots(eng.dsg, s),
              _FiniteEngine: lambda eng, s: finite_stack_fps(
                  eng.lp, eng.table, s)}

    def stepped_store(self, s, node, orig=_Engine.stepped_store):
        out = orig(self, s, node)
        full = self.dsg.full_stores.get(s, {})
        want = collect(s, full, stacks[type(self)](self, s), self.lp,
                       self.policy)
        assert self.dsg.node_stores[s] == want, s
        seen.append(s)
        return out
    monkeypatch.setattr(_Engine, "stepped_store", stepped_store)
    for policy in SPY_POLICIES:
        seen.clear()
        dsg = analyze(lp, policy)
        assert len(seen) == dsg.stats["steps"], policy


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [8, 16, 32])
def test_full_steps_per_node_stay_flat(n, mode):
    gen = gen_module()
    lp = load_program(gen.chain_program(n, random.Random(1)).source)
    stats = analyze(lp, Policy(mode=mode)).stats
    assert stats["full_steps"] <= 2 * stats["nodes"], stats


def test_dequeues_per_node_stay_flat():
    # caller bindings no longer ride through every callee node one hop
    # per dequeue, so a chain four times as deep costs about as many
    # dequeues per node
    per_node = {}
    for n in (16, 64):
        stats = analyze(load_program(chain_source(n)), Policy()).stats
        per_node[n] = stats["steps"] / stats["nodes"]
    assert abs(per_node[64] - per_node[16]) <= 0.25 * per_node[16], per_node


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS) + [FANIN])
def test_push_edges_carry_no_caller_frame(name):
    # a callee entry whose only in-edges are pushes holds what those
    # pushes brought: the heap and its own frame's bindings (parameters,
    # this, and what a frame beneath sharing its pointer holds), never
    # the caller's frame unless that is its own pointer
    lp = named_program(name)
    for policy in [p for p in POLICIES if p.mode == "pushdown"]:
        dsg = analyze(lp, policy)
        pushed, other = set(), set()
        for s1, act, s2 in dsg.edges:
            if isinstance(act, Push) and isinstance(act.frame, CallFrame):
                pushed.add(s2)
            elif s1 != s2 or act == EPSILON:
                other.add(s2)
        for s2 in pushed - other:
            for a in dsg.full_stores[s2]:
                assert isinstance(a.ptr, ObjPtr) or a.ptr == s2.fp, \
                    (policy, s2, a)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [8, 16])
def test_no_dequeue_is_idle(n, mode, monkeypatch):
    # a dequeue that finds no store growth and no stepped delta, and
    # steps no context in full, does nothing: a root pointer new on a
    # node's stack must not wake it when its collection has no address
    # pending under that pointer
    dequeues = []                  # [store grew, stepped delta, full steps]
    stepped_store = _Engine.stepped_store

    def spy_stepped_store(self, s, node):
        grew = node.grown is None or bool(node.grown)
        sigma, delta = stepped_store(self, s, node)
        dequeues.append([grew, bool(delta), 0])
        return sigma, delta

    cls = _PushdownEngine if mode == "pushdown" else _FiniteEngine
    step = cls.step

    def spy_step(self, *args):
        dequeues[-1][2] += 1
        return step(self, *args)

    monkeypatch.setattr(_Engine, "stepped_store", spy_stepped_store)
    monkeypatch.setattr(cls, "step", spy_step)
    lp = load_program(gen_module().chain_program(n, random.Random(1)).source)
    stats = analyze(lp, Policy(mode=mode)).stats
    assert len(dequeues) == stats["steps"]
    assert [d for d in dequeues if not any(d)] == []


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("gc", [True, False], ids=["gc", "nogc"])
def test_only_full_steps_call_next(mode, gc, monkeypatch):
    # a delta pass calls no transition function, and in both modes
    # every full step is one call of domain.next
    module = engine_module if mode == "pushdown" else finite_module
    calls = []
    orig = module.abstract_next

    def counting(*args, **kwargs):
        calls.append(args[1])
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, "abstract_next", counting)
    stats = analyze(named_program("chain10"), Policy(mode=mode, gc=gc)).stats
    assert stats["delta_passes"] > 0 and stats["delta_addrs"] > 0
    assert len(calls) == stats["full_steps"]
    assert stats["full_steps"] + stats["delta_passes"] >= stats["steps"]
