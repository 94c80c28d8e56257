"""Replay concrete traces through the abstraction map against the graph.

Every visited concrete state must abstract to a graph node, and every
continuation change must be matched by an edge with the corresponding
stack action. With collection on, additionally every address a
transition actually reads must still be present (with a sound value) in
the collected store of the node it reads from. The programs are the
corpus, the generated CHAINS and the generated FANIN program.
"""

from itertools import islice

import pytest

from anfj.domain import (
    CallFrame, ControlState, EPSILON, FP0A, FramePtr, HandlerFrame, ObjPtr,
    Policy, Pop, Push,
)
from anfj.engine import analyze
from anfj.machine import Addr, FramePtr, Fun, Value, run
from anfj.syntax import (
    Assign, Cast, FieldRef, Invoke, New, Return, Throw, VarRef,
)

from helpers import CHAINS, FANIN, corpus_names, kont_frames, named_program
from oracles import frames_beneath

REPLAY_FUEL = 600  # long enough for every terminating corpus program;
                   # recursive ones are replayed on their trace prefix
NAMES = sorted(corpus_names()) + list(CHAINS) + [FANIN]


class Abstraction:
    """Concrete-to-abstract mapping for a fixed policy: pointers keep
    their site, call histories are cut to the newest k calls, and the
    count of popped call frames is forgotten."""

    def __init__(self, policy):
        self.policy = policy

    def time(self, t):
        return tuple(islice(t, self.policy.k))

    def fp(self, fp):
        if fp.site is None:
            return FP0A
        return FramePtr(fp.site, self.time(fp.time))

    def op(self, op):
        return ObjPtr(op.site, self.time(op.time))

    def ptr(self, p):
        return self.fp(p) if isinstance(p, FramePtr) else self.op(p)

    def value(self, v):
        return Value(v.class_name, self.op(v.op))

    def addr(self, a):
        return Addr(a.base, self.ptr(a.ptr))

    def state(self, st):
        return ControlState(st.stmt, self.fp(st.fp), self.time(st.time))

    def frame(self, k):
        if isinstance(k, Fun):
            return CallFrame(k.var, k.target, self.fp(k.fp))
        return HandlerFrame(k.class_name, k.var, k.target, self.fp(k.fp))


def kont_action(alpha, before, after):
    fb, fa = kont_frames(before), kont_frames(after)
    if len(fa) == len(fb):
        return EPSILON
    if len(fa) == len(fb) + 1:
        return Push(alpha.frame(fa[0]))
    assert len(fa) == len(fb) - 1, "more than one frame moved"
    return Pop(alpha.frame(fb[0]))


def replay_violations(lp, policy):
    _, trace = run(lp, fuel=REPLAY_FUEL)
    dsg = analyze(lp, policy)
    alpha = Abstraction(policy)
    bad = []
    for i, st in enumerate(trace):
        q = alpha.state(st)
        if q not in dsg.nodes:
            bad.append(f"step {i}: state at L{st.stmt.label} missing")
            continue
        if i + 1 < len(trace):
            st2 = trace[i + 1]
            edge = (q, kont_action(alpha, st.kont, st2.kont),
                    alpha.state(st2))
            if edge not in dsg.edges:
                bad.append(f"step {i}: no edge "
                           f"L{st.stmt.label}->L{st2.stmt.label}")
    return bad


REPLAY_POLICIES = [
    Policy(k=0, gc=False, liveness=False),
    Policy(k=1, gc=False, liveness=False),
    Policy(k=0),
    Policy(k=1),
]
POLICY_IDS = ["k0-nogc", "k1-nogc", "k0-gc", "k1-gc"]


@pytest.mark.parametrize("policy", REPLAY_POLICIES, ids=POLICY_IDS)
@pytest.mark.parametrize("name", NAMES)
def test_replay_matches_graph(name, policy):
    lp = named_program(name)
    assert replay_violations(lp, policy) == []


# -- collected stores never lose a binding a transition reads --------------------

def transition_reads(st):
    """Concrete addresses the machine reads when stepping st."""
    s, fp, sigma = st.stmt, st.fp, st.store
    if isinstance(s, Assign):
        e = s.exp
        if isinstance(e, (VarRef, Cast)):
            return {Addr(e.var, fp)}
        if isinstance(e, FieldRef):
            out = {Addr(e.var, fp)}
            v = sigma.get(Addr(e.var, fp))
            if v is not None:
                out.add(Addr(e.field, v.op))
            return out
        if isinstance(e, Invoke):
            return {Addr(e.receiver, fp)} | {Addr(a, fp) for a in e.args}
        if isinstance(e, New):
            return {Addr(a, fp) for a in e.args}
    if isinstance(s, (Return, Throw)):
        return {Addr(s.var, fp)}
    return set()


@pytest.mark.parametrize("policy",
                         [Policy(k=0), Policy(k=1),
                          Policy(k=0, liveness=False)],
                         ids=["k0", "k1", "k0-noliveness"])
@pytest.mark.parametrize("name", NAMES)
def test_collected_store_retains_every_read(name, policy):
    lp = named_program(name)
    _, trace = run(lp, fuel=REPLAY_FUEL)
    _, visible = frames_beneath(analyze(lp, policy))
    alpha = Abstraction(policy)
    for i in range(len(trace) - 1):
        st = trace[i]
        q = alpha.state(st)
        sigma_hat = visible.get(q, {})
        for a in sorted(transition_reads(st), key=lambda a: a.base):
            if a not in st.store:
                continue  # the machine would have gotten stuck instead
            got = sigma_hat.get(alpha.addr(a))
            assert got, (f"{name} step {i}: read {a.base} "
                         f"collected away at L{st.stmt.label}")
            assert alpha.value(st.store[a]) in got
