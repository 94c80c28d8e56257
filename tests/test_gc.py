"""Garbage collection: roots, reachability closure, store restriction.

root, stack_root and reachable are the from-scratch specification in
oracles.py; eagc and its incremental Collection are checked against it.
"""

import json
import random

import pytest

from anfj.cli import main
from anfj.domain import (
    CallFrame, ControlState, FP0A, FramePtr, HandlerFrame, ObjPtr, Policy,
    store_join,
)
from anfj.engine import analyze
from anfj.gc import Collection, eagc
from anfj.machine import Addr, Value
from anfj.metrics import metric_ec_links
from anfj.syntax import Invoke, Assign, load_program

from helpers import all_labels, corpus_program
from oracles import (
    brute_reachable_addrs, call_fps, collect, frames_beneath, reachable,
    root, stack_root,
)
from test_byte_identity import POLICIES
from test_delta import assert_equals_reference
from test_soundness import replay_violations

FP1 = FramePtr(1, ())
OP = [ObjPtr(i, ()) for i in range(8)]


def _store(*entries):
    return {addr: frozenset(vals) for addr, vals in entries}


# -- stack_root ----------------------------------------------------------------

def test_stack_root_skips_handler_frames():
    sigma = _store((Addr("x", FP1), [Value("C", OP[0])]))
    frames = {HandlerFrame("E", "e", None, FP1)}
    assert stack_root(call_fps(frames), sigma) == set()


def test_stack_root_collects_call_frame_bindings():
    sigma = _store((Addr("x", FP1), [Value("C", OP[0])]),
                   (Addr("y", FP0A), [Value("C", OP[1])]))
    frames = {CallFrame("v", None, FP1)}
    assert stack_root(call_fps(frames), sigma) == {Addr("x", FP1)}


def test_stack_root_empty_frames():
    sigma = _store((Addr("x", FP1), [Value("C", OP[0])]))
    assert stack_root(set(), sigma) == set()


# -- root ----------------------------------------------------------------------

def _call_node(lp):
    for ell in all_labels(lp):
        s = lp.stmt(ell)
        if isinstance(s, Assign) and isinstance(s.exp, Invoke):
            return s
    raise AssertionError("no call statement")


def test_root_drops_dead_binding_with_liveness_on():
    # wrapper object b is dead at the call that consumes only its payload
    lp = corpus_program("dead_before_call")
    s = _call_node(lp)
    sigma = _store((Addr("b", FP0A), [Value("B", OP[0])]),
                   (Addr("p", FP0A), [Value("A", OP[1])]),
                   (Addr(s.exp.receiver, FP0A), [Value("Sink", OP[2])]))
    q = ControlState(s, FP0A, ())
    r_on = root(q, sigma, set(), lp, Policy(liveness=True))
    r_off = root(q, sigma, set(), lp, Policy(liveness=False))
    assert Addr("b", FP0A) not in r_on
    assert Addr("p", FP0A) in r_on
    assert Addr("b", FP0A) in r_off
    assert r_on <= r_off


def test_root_empty_store():
    lp = corpus_program("dead_before_call")
    q = ControlState(_call_node(lp), FP0A, ())
    assert root(q, {}, set(), lp, Policy()) == set()


def test_root_includes_stack_bindings_from_other_activations():
    lp = corpus_program("dead_before_call")
    s = _call_node(lp)
    sigma = _store((Addr("z", FP1), [Value("A", OP[0])]))
    q = ControlState(s, FP0A, ())
    assert Addr("z", FP1) in root(q, sigma, {FP1}, lp, Policy())


# -- reachable -----------------------------------------------------------------

def test_reachable_follows_fields_not_disconnected_objects():
    fp = FP1
    sigma = _store(
        (Addr("a", fp), [Value("C", OP[1])]),
        (Addr("f", OP[1]), [Value("D", OP[2])]),
        (Addr("g", OP[3]), [Value("E", OP[4])]),
    )
    roots = {Addr("a", fp)}
    got = reachable(roots, sigma)
    assert got == {Addr("a", fp), Addr("f", OP[1])}
    assert got == brute_reachable_addrs(sigma, roots)


def test_reachable_empty_roots():
    sigma = _store((Addr("a", FP1), [Value("C", OP[1])]))
    assert reachable(set(), sigma) == set()


def test_reachable_terminates_on_cycles():
    sigma = _store(
        (Addr("a", FP1), [Value("C", OP[1])]),
        (Addr("f", OP[1]), [Value("C", OP[2])]),
        (Addr("f", OP[2]), [Value("C", OP[1])]),
    )
    roots = {Addr("a", FP1)}
    got = reachable(roots, sigma)
    assert got == {Addr("a", FP1), Addr("f", OP[1]), Addr("f", OP[2])}
    assert got == brute_reachable_addrs(sigma, roots)


def _random_cyclic_store(rng, max_addrs=50):
    n_ops = rng.randrange(2, 9)
    ops = [ObjPtr(i, ()) for i in range(n_ops)]
    fps = [FP0A, FP1]
    sigma = {}
    for _ in range(rng.randrange(1, max_addrs + 1)):
        if rng.random() < 0.4:
            addr = Addr(f"v{rng.randrange(6)}", rng.choice(fps))
        else:
            addr = Addr(f"f{rng.randrange(4)}", rng.choice(ops))
        vals = frozenset(Value("C", rng.choice(ops))
                         for _ in range(rng.randrange(1, 4)))
        sigma[addr] = sigma.get(addr, frozenset()) | vals
        if len(sigma) >= max_addrs:
            break
    # force a two-cycle now and then
    if rng.random() < 0.5 and len(ops) >= 2:
        sigma[Addr("c", ops[0])] = frozenset((Value("C", ops[1]),))
        sigma[Addr("c", ops[1])] = frozenset((Value("C", ops[0]),))
    return sigma


def test_reachable_matches_brute_force_on_random_stores():
    rng = random.Random(99)
    for _ in range(300):
        sigma = _random_cyclic_store(rng)
        pool = sorted(sigma, key=lambda a: (a.base, str(a.ptr)))
        roots = {a for a in pool if rng.random() < 0.3}
        assert reachable(roots, sigma) == brute_reachable_addrs(sigma, roots)


def test_reachable_monotone_in_roots():
    rng = random.Random(7)
    for _ in range(200):
        sigma = _random_cyclic_store(rng)
        pool = sorted(sigma, key=lambda a: (a.base, str(a.ptr)))
        small = {a for a in pool if rng.random() < 0.25}
        big = small | {a for a in pool if rng.random() < 0.25}
        assert reachable(small, sigma) <= reachable(big, sigma)


# -- eagc ----------------------------------------------------------------------

def test_eagc_identity_when_nothing_dead():
    lp = corpus_program("dead_before_call")
    s = _call_node(lp)
    live_var = s.exp.receiver
    sigma = _store((Addr(live_var, FP0A), [Value("Sink", OP[0])]))
    q = ControlState(s, FP0A, ())
    assert eagc(q, sigma, set(), lp, Policy()) is sigma


def test_eagc_disabled_is_identity_object():
    lp = corpus_program("dead_before_call")
    q = ControlState(_call_node(lp), FP0A, ())
    sigma = _store((Addr("zzz", FP1), [Value("B", OP[0])]))  # plainly dead
    assert eagc(q, sigma, set(), lp, Policy(gc=False)) is sigma


def test_eagc_idempotent():
    rng = random.Random(31)
    lp = corpus_program("dead_before_call")
    q = ControlState(_call_node(lp), FP0A, ())
    for _ in range(100):
        sigma = _random_cyclic_store(rng)
        once = eagc(q, sigma, set(), lp, Policy())
        assert eagc(q, once, set(), lp, Policy()) == once


def test_dead_wrapper_collected_at_call_node():
    # the B wrapper and its field are in the gc-off store at the call,
    # gone from the gc-on store; the extracted payload survives both
    lp = corpus_program("dead_before_call")
    call_label = _call_node(lp).label

    def store_at_call(policy):
        dsg = analyze(lp, policy)
        [q] = [n for n in dsg.nodes if n.stmt.label == call_label]
        return frames_beneath(dsg)[1][q], q

    on, q_on = store_at_call(Policy())
    off, q_off = store_at_call(Policy(gc=False))
    b_addr = Addr("b", q_on.fp)
    assert b_addr in off and b_addr not in on
    assert any(a.base == "item" for a in off)
    assert not any(a.base == "item" for a in on)
    p_addr = Addr("p", q_on.fp)
    assert p_addr in on and p_addr in off


def test_gc_on_store_domains_within_gc_off():
    for name in ("dead_before_call", "reuse_of_locals", "try_complete",
                 "throw_across_call", "receiver_split"):
        lp = corpus_program(name)
        dsg_on = analyze(lp, Policy())
        dsg_off = analyze(lp, Policy(gc=False))
        assert dsg_on.nodes <= dsg_off.nodes
        _, on = frames_beneath(dsg_on)
        _, off = frames_beneath(dsg_off)
        for q in dsg_on.nodes:
            assert set(on[q]) <= set(off[q])


# -- incremental collection ------------------------------------------------------

def test_eagc_keeps_exactly_the_spec_on_random_stores():
    rng = random.Random(5)
    lp = corpus_program("dead_before_call")
    for _ in range(200):
        sigma = _random_cyclic_store(rng)
        q = ControlState(_call_node(lp), rng.choice([FP0A, FP1]), ())
        fps = {fp for fp in (FP0A, FP1) if rng.random() < 0.4}
        for policy in (Policy(), Policy(liveness=False)):
            assert eagc(q, sigma, fps, lp, policy) == \
                collect(q, sigma, fps, lp, policy)


def test_collection_extension_matches_from_scratch_on_random_growth():
    # a store and a stack that grow by random batches: each extension
    # gives the from-scratch collection, and its delta is exactly the
    # addresses whose visible binding changed
    rng = random.Random(11)
    lp = corpus_program("dead_before_call")
    for policy in (Policy(), Policy(liveness=False)):
        for _ in range(100):
            q = ControlState(_call_node(lp), rng.choice([FP0A, FP1]), ())
            sigma, fps = {}, set()
            state = Collection(q, lp, policy)
            visible = eagc(q, sigma, fps, lp, policy, state=state)
            for _ in range(rng.randrange(1, 6)):
                grew: dict = {}
                sigma = store_join(sigma, _random_cyclic_store(rng, 12), grew)
                if rng.random() < 0.3:
                    fps = fps | {rng.choice([FP0A, FP1])}
                delta = state.extend(sigma, grew, fps)
                want = collect(q, sigma, fps, lp, policy)
                assert state.visible == want
                assert len(delta) == len(set(delta))
                assert set(delta) == {a for a in want
                                      if visible.get(a) != want[a]}
                visible = state.visible


# -- the paper's central claim: GC with pushdown prunes an E-C link -----------

# Each call of mk gets its own frame pointer, but at k=0 both calls
# allocate the same abstract Box. The first Box is dead by the second
# call, and only a collection at main's second call site drops its item
# field; only then does the second throw (label 3) see E2 alone, and so
# no link to the second try's catch (E1 y) (label 14), which no run
# reaches. Kept here, not in tests/corpus/, which feeds the benchmark.
BOX_MK = """\
class Exc extends Object { Exc() { super(); } }
class E1 extends Exc { E1() { super(); } }
class E2 extends Exc { E2() { super(); } }
class Box extends Object { Exc item; Box(Exc item) { super(); this.item = item; } }
class Mk extends Object { Mk() { super(); }
  Object mk(Exc v) { Box b; Exc e; b = new Box(v); e = b.item; throw e; } }
class Main extends Object { Main() { super(); }
  Object main() { Mk m; E1 a; E2 bb; Object r1; Object r2; Exc got;
    m = new Mk(); a = new E1(); bb = new E2();
    try { r1 = m.mk(a); } catch (Exc x) { got = x; }
    try { r2 = m.mk(bb); } catch (E1 y) { got = y; }
    return got; } }
"""


@pytest.mark.parametrize("policy, links", [
    (Policy(), {(3, 10)}),
    (Policy(liveness=False), {(3, 10)}),
    (Policy(k=1, gc=False), {(3, 10)}),     # the Box pointer holds the site
    (Policy(gc=False), {(3, 10), (3, 14)}),
    (Policy(mode="finite"), {(3, 10), (3, 14)}),
    (Policy(mode="finite", gc=False), {(3, 10), (3, 14)}),
    (Policy(obj_sensitivity=True, gc=False), {(3, 10), (3, 14)}),
], ids=["gc", "gc-noliveness", "k1-nogc", "nogc", "finite-gc",
        "finite-nogc", "objsens-nogc"])
def test_pushdown_gc_prunes_an_ec_link(policy, links):
    # it takes both prunings: with GC off, or with the finite stack,
    # the dead Box's E1 reaches the second throw
    lp = load_program(BOX_MK)
    assert metric_ec_links(analyze(lp, policy))[0] == links


def test_pushdown_gc_prune_is_sound(tmp_path, capsys):
    # the one run throws E2 past both tries, and it replays inside the
    # graph of every policy, the pruning one included
    path = tmp_path / "box_mk.anfj"
    path.write_text(BOX_MK)
    assert main(["run", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "class": "E2", "outcome": "uncaught", "steps": 17}
    lp = load_program(BOX_MK)
    for policy in (Policy(), Policy(k=1), Policy(gc=False)):
        assert replay_violations(lp, policy) == [], policy
    for policy in POLICIES + [Policy(liveness=False),
                              Policy(obj_sensitivity=True, gc=False)]:
        assert_equals_reference(lp, policy)
