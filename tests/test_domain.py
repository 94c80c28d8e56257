"""Abstract domain: context policies, stores, and the transition rules."""

import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies

from anfj.domain import (
    BOTTOM, CallFrame, ControlState, EPSILON, FP0A, FramePtr, HandlerFrame,
    ObjPtr, Policy, Pop, Push, action_key, frame_key, inject_abstract,
    next as abstract_next, sorted_values, state_key, store_join, tick,
)
from anfj.engine import analyze
from anfj.gc import eagc
from anfj.machine import T0, Addr, Store, Time, Value
from anfj.syntax import (
    THIS, Assign, Cast, FieldRef, Invoke, New, PopHandler, Return, Throw,
    TryCatch, VarRef, load_program,
)

from helpers import all_labels, corpus_names, corpus_program, stack_roots
from oracles import explore_configs, frames_beneath, store_leq


def find_assign(lp, var, exp_type):
    for ell in all_labels(lp):
        s = lp.stmt(ell)
        if isinstance(s, Assign) and s.var == var and isinstance(s.exp, exp_type):
            return s
    raise AssertionError(f"no assignment {var} = <{exp_type.__name__}>")


# -- tick ---------------------------------------------------------------------

def test_tick_k0_is_monovariant():
    p = Policy(k=0)
    assert tick(7, (), p) == ()
    assert tick(3, (), p) == ()


def test_tick_k1_truncates_to_newest():
    assert tick(2, (1,), Policy(k=1)) == (2,)


def test_tick_k2_keeps_two_newest():
    assert tick(3, (2, 1), Policy(k=2)) == (3, 2)


# -- object sensitivity -------------------------------------------------------

def test_object_sensitivity_splits_by_receiver_site():
    # one allocation site inside a factory method, two factory objects:
    # with the receiver component the site yields two pointers, without one
    lp = corpus_program("receiver_split")
    box_site = find_assign(lp, "b", New).label

    def box_ptrs(policy):
        _, visible = frames_beneath(analyze(lp, policy))
        ops = set()
        for sigma in visible.values():
            for vals in sigma.values():
                ops.update(v.op for v in vals if v.op.site == box_site)
        return ops

    split = box_ptrs(Policy(obj_sensitivity=True))
    merged = box_ptrs(Policy(obj_sensitivity=False))
    assert len(split) == 2
    assert len({op.recv for op in split}) == 2
    assert all(op.recv is not None for op in split)
    assert len(merged) == 1 and next(iter(merged)).recv is None


# -- policy / store basics ------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        Policy(k=-1)
    with pytest.raises(ValueError):
        Policy(mode="concolic")


def _random_store(rng, n_addrs=6):
    ptrs = [FramePtr(i, ()) for i in range(3)] + [ObjPtr(i, ()) for i in range(3)]
    classes = ["A", "B", "C"]
    sigma = {}
    for i in range(rng.randrange(1, n_addrs + 1)):
        addr = Addr(f"v{rng.randrange(4)}", rng.choice(ptrs))
        vals = frozenset(Value(rng.choice(classes), rng.choice(ptrs[3:]))
                         for _ in range(rng.randrange(1, 4)))
        sigma[addr] = sigma.get(addr, frozenset()) | vals
    return sigma


def _weak_set(sigma: Store, updates: dict) -> Store:
    """sigma with updates written as the analyzer writes: joined in."""
    return sigma.set({a: sigma.get(a, frozenset()) | vals
                      for a, vals in updates.items()})


def _shared_stores(rng, n=10) -> list:
    """n Stores grown from one random store by chains of weak sets and
    joins, each a few entries: they share bases, and the chains cross
    folds into fresh bases."""
    stores = [Store(_random_store(rng))]
    while len(stores) < n:
        sigma = rng.choice(stores)
        grown = _weak_set(sigma, _random_store(rng, 2))
        if rng.random() < 0.5:
            grown = store_join(rng.choice(stores), grown)
        stores.append(grown)
    return stores


def _store_triples(rng, count=200):
    """Triples of plain dict stores, then of Stores that share bases."""
    for _ in range(count):
        yield tuple(_random_store(rng) for _ in range(3))
    for _ in range(count):
        yield tuple(rng.sample(_shared_stores(rng), 3))


def test_store_join_lattice_laws():
    rng = random.Random(11)
    shared = 0
    for a, b, c in _store_triples(rng):
        shared += type(a) is type(b) is Store and a._base is b._base
        assert store_join(a, b) == store_join(b, a)
        assert store_join(a, store_join(b, c)) == store_join(store_join(a, b), c)
        assert store_join(a, a) == a
        assert store_leq(a, store_join(a, b))
        assert store_leq(a, a)
    assert shared > 20


def _labels(record):
    if isinstance(record, ControlState):
        return state_key(record)
    if isinstance(record, (Push, Pop)):
        return action_key(record)
    return frame_key(record)


def test_records_hash_as_their_fields_and_equal_only_their_own_type():
    fp, op = FramePtr(1, (2,)), ObjPtr(1, (2,))
    lp = corpus_program("var_chain")
    f = CallFrame("r", lp.stmt(1), fp)
    records = [fp, op, ObjPtr(3, (), 4), Addr("x", fp), Value("A", op),
               FramePtr(1, Time(2, T0)), Addr("x", ObjPtr(1, Time(2, T0))),
               inject_abstract(lp), f, HandlerFrame("E", "e", lp.stmt(1), fp),
               Push(f), Pop(f), EPSILON]
    for obj in records:
        assert hash(obj) == hash(tuple(obj))
        assert obj != tuple(obj) and tuple(obj) != obj
        assert not obj == tuple(obj) and not tuple(obj) == obj
        clone = pickle.loads(pickle.dumps(obj))
        assert type(clone) is type(obj)
        if isinstance(obj, (ControlState, CallFrame, HandlerFrame, Push, Pop)):
            # a statement is its own identity and unpickles as a copy:
            # the clone keeps the labels but is another node
            assert _labels(clone) == _labels(obj)
            assert clone != obj and not clone == obj
        else:
            assert clone == obj and hash(clone) == hash(obj)
    assert fp != op and op != fp and not fp == op
    assert Addr("x", fp) != Addr("x", op)
    # same fields, same hash, different types
    assert Addr("A", op) != Value("A", op) and not Addr("A", op) == Value("A", op)
    assert len({fp, op, (1, (2,)), Addr("A", op), Value("A", op)}) == 5
    # the engine's edge set tells a push from a pop of the same frame
    assert Push(f) != Pop(f) and not Push(f) == Pop(f)
    assert hash(Push(f)) == hash(Pop(f))
    assert len({Push(f), Pop(f), (f,)}) == 3
    assert op.recv is None and ObjPtr(3, (), 4).recv == 4
    assert (fp.site, fp.time) == (1, (2,))


@pytest.mark.parametrize("mode", ["pushdown", "finite"])
def test_nodes_frames_and_actions_hash_without_python_code(mode):
    # every node-keyed dict and set of the engine, the closure, the root
    # graph, the export and the metrics hashes these records: a statement
    # hashes by identity, so the whole hash runs in C
    dsg = analyze(corpus_program("throw_across_call"), Policy(mode=mode))
    actions = [act for _, act, _ in dsg.edges]
    frames = [act.frame for act in actions if act is not EPSILON]
    # the finite baseline keeps its frames in a table: its edges are epsilon
    assert {type(f) for f in frames} == (
        {CallFrame, HandlerFrame} if mode == "pushdown" else set())
    keys = [*dsg.nodes, *actions, *frames, *dsg.roots.ptrs]
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for key in keys:
            hash(key)
    finally:
        sys.setprofile(None)
    assert calls == []


def test_store_join_returns_first_store_unless_it_grows():
    rng = random.Random(12)
    shared = 0
    for a, b, _ in _store_triples(rng):
        shared += type(a) is type(b) is Store and a._base is b._base
        before = dict(a.items())
        grew: dict = {}
        joined = store_join(a, b, grew)
        assert a == before
        assert (joined is a) == store_leq(b, a)
        assert grew == {x: vals for x, vals in joined.items()
                        if before.get(x) != vals}
        assert store_join(joined, b) is joined
        assert store_join(a, {}) is a
        assert store_join(a, Store()) is a
        if b:
            assert store_join({}, b) is b and store_join(Store(), b) is b
    assert shared > 20


# Stores as the analyzer uses them: a pool of stores, each made from an
# earlier one by a weak set or a join, against a pool of plain dicts
# made the same way.
_ADDRS = [Addr(f"v{i % 4}", FramePtr(i // 4, ())) for i in range(12)]
_VALUES = [Value("A", ObjPtr(i, ())) for i in range(5)]
_STORE_OPS = strategies.lists(strategies.tuples(
    strategies.sampled_from(["set", "join", "join-dict"]),
    strategies.integers(0, 63), strategies.integers(0, 63),
    strategies.dictionaries(
        strategies.sampled_from(_ADDRS),
        strategies.frozensets(strategies.sampled_from(_VALUES),
                              min_size=1, max_size=3),
        max_size=6)), max_size=40)


def _dict_join(a: dict, b: dict) -> dict:
    out = dict(a)
    for addr, vals in b.items():
        out[addr] = out.get(addr, frozenset()) | vals
    return out


@settings(max_examples=200, deadline=None)
@given(_STORE_OPS)
def test_store_matches_a_dict_model_under_weak_sets_and_joins(ops):
    stores, models = [Store()], [{}]
    written = []                       # (a base or delta dict, its copy)
    for kind, i, j, updates in ops:
        sigma, model = stores[i % len(stores)], models[i % len(models)]
        if kind == "set":
            new = {a: sigma.get(a, frozenset()) | v for a, v in updates.items()}
            out, want = sigma.set(new), {**model, **new}
        else:
            other, want_other = ((stores[j % len(stores)],
                                  models[j % len(models)])
                                 if kind == "join" else (updates, updates))
            grew: dict = {}
            out = store_join(sigma, other, grew)
            want = _dict_join(model, want_other)
            assert (out is sigma) == (want == model)
            assert grew == {a: v for a, v in want.items() if model.get(a) != v}
            if out is other:
                continue               # sigma was empty: other itself
        assert type(out) is Store
        assert len(out) == len(want) and bool(out) == bool(want)
        assert list(out) == list(want)
        assert list(out.items()) == list(want.items())
        assert out == want and want == out
        assert all(out.get(a) == want.get(a) for a in _ADDRS)
        written += [(out._base, dict(out._base)), (out._delta, dict(out._delta))]
        stores.append(out)
        models.append(want)
    for x, (sigma, model) in enumerate(zip(stores, models)):
        assert sigma == model
        for other, want in zip(stores[x:], models[x:]):
            assert (sigma == other) == (model == want)
            assert (sigma != other) == (model != want)
    for d, copy in written:
        assert d == copy and list(d) == list(copy)


# -- transition rules -----------------------------------------------------------

SNIPPET = """
class E1 extends Object { E1() { super(); } }
class E2 extends E1 { E2() { super(); } }
class Main extends Object {
  Main() { super(); }
  Object main() {
    Object a;
    Object b;
    a = new Object();
    b = a;
    return b;
  }
}
"""


def test_assign_varref_copies_and_stays_epsilon():
    lp = load_program(SNIPPET)
    s = find_assign(lp, "b", VarRef)
    v = Value("Object", ObjPtr(s.label - 1, ()))
    sigma = {Addr("a", FP0A): frozenset((v,))}
    q = ControlState(s, FP0A, ())
    [(q2, act, sg2)] = abstract_next(lp, q, sigma, None, Policy())
    assert act == EPSILON
    assert q2.stmt is lp.successor(s.label) and q2.fp == FP0A
    assert sg2[Addr("b", FP0A)] == frozenset((v,))
    assert store_leq(sigma, sg2)


def test_unbound_read_yields_nothing_and_a_diagnostic():
    lp = load_program(SNIPPET)
    s = find_assign(lp, "b", VarRef)
    q = ControlState(s, FP0A, ())
    diags = []
    assert abstract_next(lp, q, {}, None, Policy(), diags) == []
    assert diags and "unbound" in diags[0][1]


def _throw_state_from_snippet(lp):
    # SNIPPET has no throw; synthesize one against an existing label
    ret = lp.stmt(max(all_labels(lp)))
    s = Throw(label=ret.label, var=ret.var)
    return s, ControlState(s, FP0A, ())


def test_try_pushes_handler_frame():
    lp = corpus_program("try_catch_local")
    trys = [lp.stmt(l) for l in all_labels(lp)
            if isinstance(lp.stmt(l), TryCatch)]
    s = trys[0]
    q = ControlState(s, FP0A, ())
    [(q2, act, _)] = abstract_next(lp, q, {}, None, Policy())
    assert isinstance(act, Push)
    f = act.frame
    assert isinstance(f, HandlerFrame)
    assert f.class_name == s.catch_class and f.var == s.catch_var
    assert f.target is s.handler[0] and f.fp == FP0A
    assert q2.stmt is s.body[0]


def test_throw_nonmatching_handler_pops_to_same_statement():
    lp = load_program(SNIPPET)
    s, q = _throw_state_from_snippet(lp)
    frame = HandlerFrame("E2", "e", s, FP0A)  # thrown E1 is not an E2
    v = Value("E1", ObjPtr(1, ()))
    sigma = {Addr(s.var, FP0A): frozenset((v,))}
    [(q2, act, sg2)] = abstract_next(lp, q, sigma, frame, Policy())
    assert act == Pop(frame)
    assert q2.stmt is s and q2.fp == FP0A
    assert sg2 == sigma


def test_throw_past_call_frame_pops_to_same_statement():
    lp = load_program(SNIPPET)
    s, q = _throw_state_from_snippet(lp)
    frame = CallFrame("r", lp.stmt(1), FP0A)
    sigma = {Addr(s.var, FP0A): frozenset((Value("E1", ObjPtr(1, ())),))}
    [(q2, act, _)] = abstract_next(lp, q, sigma, frame, Policy())
    assert act == Pop(frame)
    assert q2.stmt is s


def test_throw_matching_handler_enters_it_binding_the_value():
    lp = load_program(SNIPPET)
    s, q = _throw_state_from_snippet(lp)
    target = lp.stmt(1)
    frame = HandlerFrame("E1", "e", target, FP0A)
    v = Value("E2", ObjPtr(1, ()))  # subtype matches
    sigma = {Addr(s.var, FP0A): frozenset((v,))}
    [(q2, act, sg2)] = abstract_next(lp, q, sigma, frame, Policy())
    assert act == Pop(frame)
    assert q2.stmt is target
    assert sg2[Addr("e", FP0A)] == frozenset((v,))


def test_throw_mixed_values_fan_out_once_per_outcome():
    lp = load_program(SNIPPET)
    s, q = _throw_state_from_snippet(lp)
    target = lp.stmt(1)
    frame = HandlerFrame("E2", "e", target, FP0A)
    hit = Value("E2", ObjPtr(1, ()))
    miss_a = Value("E1", ObjPtr(2, ()))
    miss_b = Value("Object", ObjPtr(3, ()))
    sigma = {Addr(s.var, FP0A): frozenset((hit, miss_a, miss_b))}
    succs = abstract_next(lp, q, sigma, frame, Policy())
    entered = [x for x in succs if x[0].stmt is target]
    missed = [x for x in succs if x[0].stmt is s]
    assert len(entered) == 1 and len(missed) == 1  # misses deduplicate
    assert entered[0][2][Addr("e", FP0A)] == frozenset((hit,))


def test_fieldref_joins_across_receiver_objects():
    lp = corpus_program("site_conflation")
    s = find_assign(lp, "va", FieldRef)
    op1, op2 = ObjPtr(1, ()), ObjPtr(2, ())
    va, vb = Value("A", ObjPtr(8, ())), Value("B", ObjPtr(9, ()))
    both = {
        Addr(s.exp.var, FP0A): frozenset((Value("Box", op1), Value("Box", op2))),
        Addr("item", op1): frozenset((va,)),
        Addr("item", op2): frozenset((vb,)),
    }
    q = ControlState(s, FP0A, ())
    [(q2, act, sg2)] = abstract_next(lp, q, both, None, Policy())
    assert act == EPSILON

    # oracle: union of the two single-object rule instances
    expect = frozenset()
    for op in (op1, op2):
        single = dict(both)
        single[Addr(s.exp.var, FP0A)] = frozenset((Value("Box", op),))
        [(_, _, sg_one)] = abstract_next(lp, q, single, None, Policy())
        expect |= sg_one[Addr(s.var, FP0A)]
    assert sg2[Addr(s.var, FP0A)] == expect == frozenset((va, vb))


def test_invoke_fans_out_per_receiver_value_with_singleton_this():
    lp = corpus_program("site_conflation")
    s = find_assign(lp, "box1", Invoke)
    mk1, mk2 = Value("Mk", ObjPtr(3, ())), Value("Mk", ObjPtr(4, ()))
    arg = Value("A", ObjPtr(5, ()))
    sigma = {
        Addr(s.exp.receiver, FP0A): frozenset((mk1, mk2)),
        Addr(s.exp.args[0], FP0A): frozenset((arg,)),
    }
    q = ControlState(s, FP0A, ())
    succs = abstract_next(lp, q, sigma, None, Policy())
    assert len(succs) == 2
    m = lp.method_lookup("Mk", s.exp.method)
    this_sets = set()
    for q2, act, sg2 in succs:
        assert isinstance(act, Push)
        assert act.frame == CallFrame(s.var, lp.successor(s.label), FP0A)
        assert q2.stmt is m.body[0]
        assert q2.fp == FramePtr(s.label, ())
        this_sets.add(sg2[Addr(THIS, q2.fp)])
        assert sg2[Addr(m.params[0][1], q2.fp)] == frozenset((arg,))
    assert this_sets == {frozenset((mk1,)), frozenset((mk2,))}


def test_invoke_ticks_time_and_new_does_not():
    lp = corpus_program("site_conflation")
    call = find_assign(lp, "box1", Invoke)
    q = ControlState(call, FP0A, ())
    mk = Value("Mk", ObjPtr(3, ()))
    arg = Value("A", ObjPtr(5, ()))
    sigma = {Addr(call.exp.receiver, FP0A): frozenset((mk,)),
             Addr(call.exp.args[0], FP0A): frozenset((arg,))}
    [(q2, _, _)] = abstract_next(lp, q, sigma, None, Policy(k=1))
    assert q2.time == (call.label,)
    assert q2.fp == FramePtr(call.label, (call.label,))

    alloc_s = find_assign(lp, "mk", New)
    q3 = ControlState(alloc_s, FP0A, (9,))
    [(q4, _, sg4)] = abstract_next(lp, q3, {}, None, Policy(k=1))
    assert q4.time == (9,)  # allocation carries time through
    assert sg4[Addr("mk", FP0A)] == frozenset((Value("Mk", ObjPtr(alloc_s.label, (9,))),))


def test_return_binds_at_caller_and_skips_handler_frames():
    lp = load_program(SNIPPET)
    ret = lp.stmt(max(all_labels(lp)))
    v = Value("Object", ObjPtr(1, ()))
    sigma = {Addr(ret.var, FP0A): frozenset((v,))}
    caller_fp = FramePtr(9, ())
    target = lp.stmt(1)
    q = ControlState(ret, FP0A, ())

    [(q2, act, sg2)] = abstract_next(lp, q, sigma, CallFrame("r", target, caller_fp), Policy())
    assert act == Pop(CallFrame("r", target, caller_fp))
    assert q2 == ControlState(target, caller_fp, ())
    assert sg2[Addr("r", caller_fp)] == frozenset((v,))

    h = HandlerFrame("E1", "e", target, caller_fp)
    [(q3, act3, sg3)] = abstract_next(lp, q, sigma, h, Policy())
    assert act3 == Pop(h) and q3.stmt is ret and sg3 == sigma

    assert abstract_next(lp, q, sigma, None, Policy()) == []  # halt level


def test_constructor_chain_initializes_inherited_fields():
    lp = corpus_program("ctor_chain")
    s = find_assign(lp, next_new_var(lp), New)
    arg_vals = {a: frozenset((Value("Object", ObjPtr(90 + i, ())),))
                for i, a in enumerate(s.exp.args)}
    sigma = {Addr(a, FP0A): vs for a, vs in arg_vals.items()}
    q = ControlState(s, FP0A, ())
    [(q2, act, sg2)] = abstract_next(lp, q, sigma, None, Policy())
    assert act == EPSILON
    [made] = sorted(sg2[Addr(s.var, FP0A)], key=lambda v: v.class_name)
    fields, _ = lp.class_lookup(s.exp.class_name)
    for f in fields:
        assert sg2.get(Addr(f, made.op)), f"field {f} not initialized"


def next_new_var(lp):
    for ell in all_labels(lp):
        s = lp.stmt(ell)
        if isinstance(s, Assign) and isinstance(s.exp, New) and s.exp.args:
            return s.var
    raise AssertionError("no constructor call with arguments")


# -- the rule table -----------------------------------------------------------

RULE_POLICIES = [Policy(k=k, obj_sensitivity=obj)
                 for k in (0, 1) for obj in (False, True)]


def _assert_writes(sigma, sg2, bindings):
    """sg2 is a new store: sigma with each of bindings joined in."""
    assert type(sg2) is Store and sg2 is not sigma
    assert sg2.keys() == sigma.keys() | bindings.keys()
    for a, vals in sg2.items():
        assert vals == sigma.get(a, frozenset()) | bindings.get(a, frozenset())


def _assert_new(lp, policy, q, sigma, sg2, arg_sets):
    """sg2 is a new store: sigma with the allocation at q joined in, one
    object per receiver allocation site under object sensitivity, each
    field of each object bound to one argument's value set."""
    s, fp, t = q.stmt, q.fp, q.time
    assert type(sg2) is Store and sg2 is not sigma
    sites = (sorted({v.op.site for v in sigma.get(Addr(THIS, fp), ())})
             if policy.obj_sensitivity else [])
    made = {Value(s.exp.class_name, ObjPtr(s.label, t, site))
            for site in sites or [None]}
    fields, _ = lp.class_lookup(s.exp.class_name)
    field_addrs = {Addr(f, v.op) for v in made for f in fields}
    dest = Addr(s.var, fp)
    assert sg2.keys() == sigma.keys() | field_addrs | {dest}
    assert sg2[dest] == sigma.get(dest, frozenset()) | made
    for a, vals in sg2.items():
        old = sigma.get(a, frozenset())
        if a in field_addrs:
            assert any(vals == old | arg for arg in arg_sets)
        elif a != dest:
            assert vals == old


def _check_rule(lp, policy, q, sigma, top, succs):
    s, fp, t = q.stmt, q.fp, q.time
    nxt = lp.succ_map.get(s.label)
    here = ControlState(nxt, fp, t)
    if isinstance(s, Assign):
        e = s.exp
        dest = Addr(s.var, fp)
        if isinstance(e, (VarRef, Cast)):
            vals = sigma.get(Addr(e.var, fp))
            if not vals:
                assert succs == []
                return
            [(q2, act, sg2)] = succs
            assert (q2, act) == (here, EPSILON)
            _assert_writes(sigma, sg2, {dest: vals})
        elif isinstance(e, FieldRef):
            pool = frozenset().union(*(
                sigma.get(Addr(e.field, v.op), frozenset())
                for v in sigma.get(Addr(e.var, fp), ())))
            if not pool:
                assert succs == []
                return
            [(q2, act, sg2)] = succs
            assert (q2, act) == (here, EPSILON)
            _assert_writes(sigma, sg2, {dest: pool})
        elif isinstance(e, Invoke):
            sets = [sigma.get(Addr(a, fp)) for a in (e.receiver, *e.args)]
            if not all(sets):
                assert succs == []
                return
            tc = tick(s.label, t, policy)
            fp2 = FramePtr(s.label, tc)
            receivers = [rv for rv in sorted_values(sets[0])
                         if lp.method_lookup(rv.class_name, e.method)]
            assert len(succs) == len(receivers)
            for rv, (q2, act, sg2) in zip(receivers, succs):
                m = lp.method_lookup(rv.class_name, e.method)
                assert q2 == ControlState(m.body[0], fp2, tc)
                assert act == Push(CallFrame(s.var, nxt, fp))
                bindings = {Addr(THIS, fp2): frozenset((rv,))}
                for (_, pname), vals in zip(m.params, sets[1:]):
                    bindings[Addr(pname, fp2)] = vals
                _assert_writes(sigma, sg2, bindings)
        else:
            assert isinstance(e, New)
            sets = [sigma.get(Addr(a, fp)) for a in e.args]
            if not all(sets):
                assert succs == []
                return
            [(q2, act, sg2)] = succs
            assert (q2, act) == (here, EPSILON)
            _assert_new(lp, policy, q, sigma, sg2, sets)
        return
    if isinstance(s, TryCatch):
        frame = HandlerFrame(s.catch_class, s.catch_var, s.handler[0], fp)
        [(q2, act, sg2)] = succs
        assert (q2, act) == (ControlState(s.body[0], fp, t), Push(frame))
        assert sg2 is sigma
        return
    if isinstance(s, PopHandler):
        if not isinstance(top, HandlerFrame):
            assert succs == []
            return
        [(q2, act, sg2)] = succs
        assert (q2, act) == (here, Pop(top)) and sg2 is sigma
        return
    assert isinstance(s, (Return, Throw))
    vals = sigma.get(Addr(s.var, fp))
    if not vals or top is None:
        assert succs == []
        return
    caught = ControlState(top.target, top.fp, t)
    bound = Addr(top.var, top.fp)
    if isinstance(s, Return):
        [(q2, act, sg2)] = succs
        if isinstance(top, CallFrame):
            assert (q2, act) == (caught, Pop(top))
            _assert_writes(sigma, sg2, {bound: vals})
        else:                          # over a handler frame, to itself
            assert (q2, act) == (q, Pop(top)) and sg2 is sigma
        return
    if isinstance(top, CallFrame):     # unwound, to itself
        [(q2, act, sg2)] = succs
        assert (q2, act) == (q, Pop(top)) and sg2 is sigma
        return
    hits = [v for v in sorted_values(vals)
            if lp.subtype(v.class_name, top.class_name)]
    passed = [x for x in succs if x[2] is sigma]
    catches = [x for x in succs if x[2] is not sigma]
    assert [(q2, act) for q2, act, _ in passed] == \
        [(q, Pop(top))] * (len(hits) < len(vals))
    assert len(catches) == len(hits)
    for v, (q2, act, sg2) in zip(hits, catches):
        assert (q2, act) == (caught, Pop(top))
        _assert_writes(sigma, sg2, {bound: frozenset((v,))})


@pytest.mark.parametrize("policy", RULE_POLICIES,
                         ids=["k0", "k0-obj", "k1", "k1-obj"])
@pytest.mark.parametrize("name", corpus_names())
def test_rule_table(name, policy):
    # each rule's stack action, successors and stores, on every pushdown
    # node's stepped store under each of its top frames: an assignment
    # that is not a call is epsilon, a call pushes its call frame, a try
    # its handler frame, and a return, throw or handler pop pops the top
    # frame. A rule that writes a binding returns a new store, sigma with
    # the binding joined in; one that writes none (a try, a handler pop,
    # and the pops to the node itself that only expose the frame
    # beneath) returns sigma itself. sigma is left as it was.
    lp = corpus_program(name)
    dsg = analyze(lp, policy)
    for q in sorted(dsg.nodes, key=state_key):
        sigma = eagc(q, dsg.full_stores.get(q, {}), stack_roots(dsg, q), lp,
                     policy)
        for kappa in sorted(dsg.iecg.tf(q), key=frame_key):
            top = None if kappa is BOTTOM else kappa
            before = dict(sigma)
            succs = abstract_next(lp, q, sigma, top, policy)
            assert sigma == before
            _check_rule(lp, policy, q, sigma, top, succs)


# -- properties over explored graphs ---------------------------------------------

PROGRAMS_SMALL = ["minimal", "var_chain", "invoke_id", "try_catch_local",
                  "throw_across_call", "dispatch"]


def _config_triples(name, policy):
    lp = corpus_program(name)
    g = explore_configs(lp, policy)
    assert not g.truncated
    for q, stack in sorted(g.configs, key=lambda c: state_key(c[0])):
        yield lp, q, (stack[0] if stack else None), g.store


def test_weak_update_every_successor_contains_input():
    for name in PROGRAMS_SMALL:
        for lp, q, top, sigma in _config_triples(name, Policy(gc=False)):
            for _, _, sg2 in abstract_next(lp, q, sigma, top, Policy(gc=False)):
                assert store_leq(sigma, sg2)


def test_monotone_in_the_store():
    rng = random.Random(23)
    policy = Policy(gc=False)
    for name in PROGRAMS_SMALL:
        for lp, q, top, sigma in _config_triples(name, policy):
            small = {}
            for addr, vals in sigma.items():
                kept = frozenset(v for v in vals if rng.random() < 0.6)
                if kept and rng.random() < 0.8:
                    small[addr] = kept
            lo = abstract_next(lp, q, small, top, policy)
            hi = abstract_next(lp, q, sigma, top, policy)
            hi_pairs = {(q2, act) for q2, act, _ in hi}
            for q2, act, sg_lo in lo:
                assert (q2, act) in hi_pairs
                assert any(q2 == qh and act == ah and store_leq(sg_lo, sgh)
                           for qh, ah, sgh in hi)


def test_reachable_control_space_is_finite_and_stable():
    for name in PROGRAMS_SMALL:
        lp = corpus_program(name)
        g1 = explore_configs(lp, Policy())
        g2 = explore_configs(lp, Policy())
        assert not g1.truncated
        assert g1.states() == g2.states()
        assert len(g1.states()) <= 4 * len(all_labels(lp))


def test_entry_state_shape():
    lp = corpus_program("minimal")
    q0 = inject_abstract(lp)
    assert q0.fp == FP0A and q0.time == () and q0.stmt.label == min(all_labels(lp))


def test_bottom_is_a_singleton_marker():
    assert BOTTOM is type(BOTTOM)()
    assert repr(BOTTOM) == "<bottom>"
