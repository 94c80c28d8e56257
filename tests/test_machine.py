"""Concrete machine tests: corpus outcomes and trace invariants.

Every corpus program's outcome was worked out by hand from the transition
rules before being frozen here. The invariant tests then sweep all traces:
determinism, time evolution, pointer freshness, stack discipline, handler
matching, and store-domain growth; a state's time is the calls before
it, and two programs check that allocations after a return or a throw
stay fresh. The shared-store tests replay every trace against plain
dicts copied and written at each step. The history tests check `Time`,
and the ids a `--trace` names histories by, against the label lists
they stand for.
"""

import io
import json

import pytest
from hypothesis import given, strategies

from anfj.cli import _write_trace
from anfj.machine import (
    FP0, T0, Addr, ConcreteState, FramePtr, Fun, FuelExhausted, Halt,
    Halted, Handle, ObjPtr, Store, Stuck, Time, Uncaught, Value,
    _popped, constructor_inits, inject, is_terminal, run, step, tick,
)
from anfj.syntax import (
    Assign, Cast, FieldRef, Invoke, New, Return, Throw, VarRef, load_program,
)

from helpers import (
    CHAINS, corpus_names, corpus_program, kont_frames, named_program,
    trace_histories,
)

# name -> (outcome class, class name of the result value or None)
EXPECTED = {
    "minimal": (Halted, "Object"),
    "var_chain": (Halted, "A"),
    "field_read": (Halted, "A"),
    "invoke_id": (Halted, "Object"),
    "dispatch": (Halted, "Bark"),
    "inherited": (Halted, "Object"),
    "ctor_chain": (Halted, "Object"),
    "cast_unrelated": (Halted, "A"),
    "cast_downcast": (Halted, "A"),
    "try_complete": (Halted, "A"),
    "try_catch_local": (Halted, "H"),
    "throw_across_call": (Halted, "Caught"),
    "return_over_handler": (Halted, "A"),
    "uncaught": (Uncaught, "Boom"),
    "throw_unmatched_nested": (Halted, "Outer"),
    "nested_complete": (Halted, "A"),
    "handler_rethrow": (Halted, "Done"),
    "rethrow_uncaught": (Uncaught, "Boom"),
    "shadowed_catch": (Halted, "B"),
    "handler_scope_direct": (Uncaught, "E2"),
    "handler_scope_wrapped": (Uncaught, "E2"),
    "reuse_of_locals": (Halted, "Keep"),
    "field_kept_alive": (Halted, "A"),
    "dead_before_call": (Halted, "Object"),
    "infinite_recursion": (FuelExhausted, None),
    "mutual_recursion": (FuelExhausted, None),
    "list_walk": (Halted, "Object"),
    "deep_throw": (Halted, "Object"),
    "unbound_local": (Stuck, None),
    "entry_this_unbound": (Stuck, None),
    "site_conflation": (Halted, "A"),
    "receiver_split": (Halted, "A"),
}

FUEL = 2000


def hist(*labels) -> Time:
    """The history of labels, most recent first, built by ticking."""
    t = T0
    for label in reversed(labels):
        t = tick(label, t)
    return t


def test_expected_covers_corpus():
    assert sorted(EXPECTED) == corpus_names()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_corpus_outcome(name):
    lp = corpus_program(name)
    outcome, trace = run(lp, fuel=FUEL)
    kind, cls = EXPECTED[name]
    assert isinstance(outcome, kind), f"{name}: got {outcome!r}"
    if cls is not None:
        assert outcome.value.class_name == cls
    assert trace, "trace must contain at least the initial state"


def test_stuck_reasons():
    out, _ = run(corpus_program("unbound_local"), fuel=FUEL)
    assert isinstance(out, Stuck) and "x" in out.reason
    out, _ = run(corpus_program("entry_this_unbound"), fuel=FUEL)
    assert isinstance(out, Stuck) and "this" in out.reason


# -- inject -------------------------------------------------------------------

def test_inject_shape():
    lp = corpus_program("minimal")
    st = inject(lp)
    assert st.stmt is lp.entry_method.body[0]
    assert st.fp == FP0
    assert st.store == {}
    assert isinstance(st.kont, Halt)
    assert st.time == hist()


def test_inject_locals_unbound():
    lp = corpus_program("unbound_local")
    st = inject(lp)
    assert Addr("x", st.fp) not in st.store


# -- constructor_inits --------------------------------------------------------

def test_apply_constructor_no_fields():
    lp = corpus_program("minimal")
    assert list(constructor_inits(lp, "Main", ())) == []


def test_apply_constructor_single_field():
    lp = corpus_program("field_read")
    arg = Value("A", ObjPtr(1, hist(1)))
    assert list(constructor_inits(lp, "Box", (arg,))) == [("item", arg)]


def test_apply_constructor_super_chain():
    # Pt3 forwards (x, y) to Pt2, which inits its fields first
    lp = corpus_program("ctor_chain")
    vx = Value("Object", ObjPtr(1, hist(1)))
    vy = Value("Object", ObjPtr(2, hist(2)))
    vz = Value("Object", ObjPtr(3, hist(3)))
    assert list(constructor_inits(lp, "Pt3", (vx, vy, vz))) == [
        ("x", vx), ("y", vy), ("z", vz)]


def test_constructed_fields_readable():
    lp = corpus_program("ctor_chain")
    out, trace = run(lp, fuel=FUEL)
    assert isinstance(out, Halted)
    # gx, gy, gz were read from the object; gz is the returned az allocation
    final = trace[-1].store
    gx = final[Addr("gx", FP0)]
    gy = final[Addr("gy", FP0)]
    assert gx != gy
    assert out.value == final[Addr("az", FP0)]


# -- fuel ---------------------------------------------------------------------

def test_fuel_exhaustion_trace_capped():
    lp = corpus_program("infinite_recursion")
    out, trace = run(lp, fuel=1000)
    assert isinstance(out, FuelExhausted)
    assert len(trace) == 1000
    assert out.state is trace[-1]


def test_fuel_zero():
    lp = corpus_program("minimal")
    out, trace = run(lp, fuel=0)
    assert isinstance(out, FuelExhausted)
    assert trace == []


def test_minimal_trace_length():
    lp = corpus_program("minimal")
    out, trace = run(lp, fuel=FUEL)
    assert isinstance(out, Halted)
    assert len(trace) == 2          # the allocation, then the return


# -- targeted rule checks -------------------------------------------------------

def test_cast_keeps_class():
    out, _ = run(corpus_program("cast_unrelated"), fuel=FUEL)
    assert isinstance(out, Halted)
    assert out.value.class_name == "A"      # not B: cast copies unchanged


def test_return_binds_at_caller_frame():
    lp = corpus_program("invoke_id")
    out, trace = run(lp, fuel=FUEL)
    assert isinstance(out, Halted)
    final = trace[-1].store
    assert final[Addr("r", FP0)] == final[Addr("a", FP0)]


def test_invoke_binds_this_and_params():
    lp = corpus_program("invoke_id")
    _, trace = run(lp, fuel=FUEL)
    entered = [st for st in trace if st.fp != FP0]
    assert entered, "callee activation must appear in the trace"
    callee = entered[0]
    assert callee.store[Addr("this", callee.fp)].class_name == "Id"
    assert callee.store[Addr("x", callee.fp)].class_name == "Object"


def test_catch_binds_thrown_value():
    lp = corpus_program("throw_across_call")
    out, trace = run(lp, fuel=FUEL)
    assert isinstance(out, Halted)
    bound = [st.store[Addr("x", FP0)] for st in trace if Addr("x", FP0) in st.store]
    assert bound and bound[-1].class_name == "Boom"


def test_var_chain_preserves_identity():
    lp = corpus_program("var_chain")
    out, trace = run(lp, fuel=FUEL)
    final = trace[-1].store
    assert final[Addr("a", FP0)] == final[Addr("c", FP0)]
    assert out.value.op == final[Addr("a", FP0)].op


def test_throw_walks_one_frame_per_step():
    # deep_throw: Boom crosses three call frames, one pop per step
    lp = corpus_program("deep_throw")
    _, trace = run(lp, fuel=FUEL)
    throw_states = [st for st in trace if isinstance(st.stmt, Throw)]
    assert len(throw_states) >= 4   # the same throw statement, re-examined per frame
    depths = [len(kont_frames(st.kont)) for st in throw_states]
    assert depths == sorted(depths, reverse=True)


def test_handler_scope_direct_uncaught_value():
    out, _ = run(corpus_program("handler_scope_direct"), fuel=FUEL)
    assert isinstance(out, Uncaught)
    assert out.value.class_name == "E2"


# -- trace invariants over the whole corpus -----------------------------------

def _pointers_of(st: ConcreteState) -> set:
    ptrs = {st.fp}
    for frame in kont_frames(st.kont):
        ptrs.add(frame.fp)
    for addr, val in st.store.items():
        ptrs.add(addr.ptr)
        ptrs.add(val.op)
    return ptrs


def _is_call(s) -> bool:
    return isinstance(s, Assign) and isinstance(s.exp, Invoke)


def _pops_call_frame(prev: ConcreteState, cur: ConcreteState) -> bool:
    return isinstance(prev.kont, Fun) and cur.kont is prev.kont.next


def _assert_allocations_fresh(prev: ConcreteState, cur: ConcreteState):
    if isinstance(prev.stmt, Assign):
        e = prev.stmt.exp
        if isinstance(e, Invoke):
            assert FramePtr(prev.stmt.label, cur.time) not in _pointers_of(prev)
        elif isinstance(e, New):
            assert ObjPtr(prev.stmt.label, cur.time) not in _pointers_of(prev)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_trace_invariants(name):
    # 400 states is past every terminating corpus run and deep enough
    # (130+ stacked frames) to exercise the divergent ones
    lp = corpus_program(name)
    out1, trace1 = run(lp, fuel=400)
    out2, trace2 = run(lp, fuel=400)

    # determinism: identical reruns
    assert out1 == out2
    assert len(trace1) == len(trace2)
    for a, b in zip(trace1, trace2):
        assert a == b

    for prev, cur in zip(trace1, trace1[1:]):
        # time evolution: a call conses its label onto the history before;
        # a step that pops a call frame keeps its calls and counts the
        # pop; any other step keeps the same history object
        if _is_call(prev.stmt):
            assert cur.time.label == prev.stmt.label
            assert cur.time.rest is prev.time
        elif _pops_call_frame(prev, cur):
            assert cur.time.label == prev.time.label
            assert cur.time.rest is prev.time.rest
            assert cur.time.pops == prev.time.pops + 1
        else:
            assert cur.time is prev.time

        # pointer freshness at allocating steps
        _assert_allocations_fresh(prev, cur)

        # stack discipline: at most one frame pushed or popped, suffix shared
        diff = len(kont_frames(cur.kont)) - len(kont_frames(prev.kont))
        assert diff in (-1, 0, 1)
        if diff == 1:
            assert cur.kont.next == prev.kont
        elif diff == -1:
            assert prev.kont.next == cur.kont
        else:
            assert prev.kont == cur.kont

        # handler matching: leaving a throw statement means a handler caught
        if isinstance(prev.stmt, Throw) and cur.stmt != prev.stmt:
            assert isinstance(prev.kont, Handle)
            thrown = prev.store[Addr(prev.stmt.var, prev.fp)]
            assert cur.stmt is prev.kont.target
            assert lp.subtype(thrown.class_name, prev.kont.class_name)
            tc = lp.handler_heads[cur.stmt.label]
            assert lp.subtype(thrown.class_name, tc.catch_class)

        # store domain only grows
        assert set(prev.store) <= set(cur.store)

    # totality: outcomes match the final configuration
    if isinstance(out1, (Halted, Uncaught)):
        assert is_terminal(trace1[-1])
    if isinstance(out1, Halted):
        assert isinstance(trace1[-1].stmt, Return)
    if isinstance(out1, Uncaught):
        assert isinstance(trace1[-1].stmt, Throw)


@pytest.mark.parametrize("name", sorted(EXPECTED) + list(CHAINS))
def test_history_is_the_calls_before(name):
    # a state's history holds the labels of the calls before it, most
    # recent first, and counts the call frames popped before it
    _, trace = run(named_program(name), fuel=FUEL)
    calls, pops = [], 0
    assert trace[0].time == T0
    for prev, cur in zip(trace, trace[1:]):
        if _is_call(prev.stmt):
            calls.insert(0, prev.stmt.label)
        elif _pops_call_frame(prev, cur):
            pops += 1
        assert list(cur.time) == calls and cur.time.pops == pops


# Two activations of `Cons.walk` each allocate a Pair at one site after
# their last call, the inner one first, with no call in between: the
# inner one returns its Pair, or throws it to the outer one's handler.
# The outer Pair must be a new object. Were it the inner one, its `first`
# would be overwritten with the outer `t`, a Cons, in place of the List.
RETURN_THEN_ALLOCATE = """\
class Pair extends Object {
  Object first;
  Object rest;
  Pair(Object first, Object rest) { super(); this.first = first; this.rest = rest; }
}
class List extends Object {
  List() { super(); }
  Object walk() {
    Object a;
    a = new Object();
    return a;
  }
}
class Cons extends List {
  List tail;
  Cons(List tail) { super(); this.tail = tail; }
  Object walk() {
    List t;
    Object r;
    Pair p;
    t = this.tail;
    r = t.walk();
    p = new Pair(t, r);
    return p;
  }
}
class Main extends Object {
  Main() { super(); }
  Object main() {
    List n;
    Cons c1;
    Cons c2;
    Pair p;
    Pair q;
    Object o;
    n = new List();
    c1 = new Cons(n);
    c2 = new Cons(c1);
    p = c2.walk();
    q = p.rest;
    o = q.first;
    return o;
  }
}
"""

THROW_THEN_ALLOCATE = """\
class E extends Object { E() { super(); } }
class Pair extends E {
  Object first;
  Object rest;
  Pair(Object first, Object rest) { super(); this.first = first; this.rest = rest; }
}
class List extends Object {
  List() { super(); }
  Object walk() {
    E e;
    e = new E();
    throw e;
  }
}
class Cons extends List {
  List tail;
  Cons(List tail) { super(); this.tail = tail; }
  Object walk() {
    List t;
    Object r;
    Pair p;
    t = this.tail;
    try {
      r = t.walk();
    } catch (E x) {
      p = new Pair(t, x);
      throw p;
    }
    return r;
  }
}
class Main extends Object {
  Main() { super(); }
  Object main() {
    List n;
    Cons c1;
    Cons c2;
    Object r;
    Pair q;
    Object o;
    n = new List();
    c1 = new Cons(n);
    c2 = new Cons(c1);
    try {
      r = c2.walk();
    } catch (Pair p) {
      q = p.rest;
      o = q.first;
      return o;
    }
    return r;
  }
}
"""


@pytest.mark.parametrize("source", [RETURN_THEN_ALLOCATE, THROW_THEN_ALLOCATE],
                         ids=["return", "throw"])
def test_allocations_after_a_pop_stay_fresh(source):
    out, trace = run(load_program(source), fuel=FUEL)
    assert isinstance(out, Halted) and out.value.class_name == "List"
    for prev, cur in zip(trace, trace[1:]):
        _assert_allocations_fresh(prev, cur)


def _deep_return_then_allocate(depth: int) -> str:
    """RETURN_THEN_ALLOCATE's classes under a main that walks a list of
    depth Cons cells: every level allocates its Pair after its last
    call, so the Pairs' histories have one set of labels."""
    classes = RETURN_THEN_ALLOCATE.split("class Main")[0]
    decls = "".join(f"    Cons c{i};\n" for i in range(1, depth + 1))
    news = "".join(f"    c{i} = new Cons(c{i - 1});\n"
                   for i in range(1, depth + 1))
    return (classes + "class Main extends Object {\n"
            "  Main() { super(); }\n"
            "  Object main() {\n"
            "    List c0;\n    Object p;\n" + decls +
            "    c0 = new List();\n" + news +
            f"    p = c{depth}.walk();\n"
            "    return p;\n  }\n}\n")


def test_pointers_after_pops_hash_apart():
    # equal hashes would put the Pairs, and each of their field
    # addresses, in one probe chain of every store dict
    depth = 1000
    out, trace = run(load_program(_deep_return_then_allocate(depth)),
                     fuel=10 * depth)
    assert isinstance(out, Halted) and out.value.class_name == "Pair"
    pairs = {v.op for v in trace[-1].store.values() if v.class_name == "Pair"}
    assert len(pairs) == depth
    assert len({hash(p) for p in pairs}) == depth


def test_step_refuses_terminal():
    lp = corpus_program("minimal")
    _, trace = run(lp, fuel=FUEL)
    with pytest.raises(ValueError):
        step(lp, trace[-1])


def test_run_accepts_explicit_start():
    lp = corpus_program("minimal")
    mid = step(lp, inject(lp))
    out, trace = run(lp, mid, fuel=FUEL)
    assert isinstance(out, Halted)
    assert trace[0] is mid


def test_fun_frame_records_return_point():
    lp = corpus_program("invoke_id")
    _, trace = run(lp, fuel=FUEL)
    framed = [st for st in trace if isinstance(st.kont, Fun)]
    assert framed
    frame = framed[0].kont
    assert frame.var == "r"
    assert isinstance(frame.target, Return)  # `return r;` follows the call
    assert frame.fp == FP0


# -- shared stores ------------------------------------------------------------

def _copying_writes(lp, st: ConcreteState) -> dict:
    """The addresses the transition rules write when stepping st, read
    off the rules directly: a copying machine writes exactly these into
    a copy of st's store."""
    s, fp, sigma, kont = st.stmt, st.fp, st.store, st.kont
    if isinstance(s, Assign):
        e = s.exp
        if isinstance(e, (VarRef, Cast)):
            return {Addr(s.var, fp): sigma[Addr(e.var, fp)]}
        if isinstance(e, FieldRef):
            d = sigma[Addr(e.var, fp)]
            return {Addr(s.var, fp): sigma[Addr(e.field, d.op)]}
        if isinstance(e, Invoke):
            d0 = sigma[Addr(e.receiver, fp)]
            method = lp.method_lookup(d0.class_name, e.method)
            fp2 = FramePtr(s.label, tick(s.label, st.time))
            out = {Addr("this", fp2): d0}
            for (_, pname), arg in zip(method.params, e.args):
                out[Addr(pname, fp2)] = sigma[Addr(arg, fp)]
            return out
        op = ObjPtr(s.label, st.time)
        argv = [sigma[Addr(a, fp)] for a in e.args]
        out = {Addr(f, op): val
               for f, val in constructor_inits(lp, e.class_name, argv)}
        out[Addr(s.var, fp)] = Value(e.class_name, op)
        return out
    if isinstance(s, Return) and isinstance(kont, Fun):
        return {Addr(kont.var, kont.fp): sigma[Addr(s.var, fp)]}
    if isinstance(s, Throw) and isinstance(kont, Handle):
        d = sigma[Addr(s.var, fp)]
        if lp.subtype(d.class_name, kont.class_name):
            return {Addr(kont.var, kont.fp): d}
    return {}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_shared_store_matches_copying_replay(name):
    # 400 states grow the divergent programs' stores past 200 entries,
    # so the delta folds into a fresh base many times along the trace
    lp = corpus_program(name)
    _, trace = run(lp, fuel=400)
    ref: dict = {}
    assert trace[0].store == ref
    for prev, cur in zip(trace, trace[1:]):
        ref = dict(ref)
        ref.update(_copying_writes(lp, prev))
        assert cur.store == ref
        assert list(cur.store.items()) == list(ref.items())
        assert len(cur.store) == len(ref)


def test_store_reads_like_a_dict():
    a, b, c, missing = (Addr(n, FP0) for n in ("a", "b", "c", "z"))
    v1 = Value("A", ObjPtr(1, hist()))
    v2 = Value("B", ObjPtr(2, hist()))
    ref: dict = {}
    sigma = Store()
    history = []
    for updates in ({a: v1}, {b: v1}, {a: v2, c: v2}, {b: v2}, {c: v1}) * 4:
        ref.update(updates)
        sigma = sigma.set(updates)
        history.append((sigma, dict(ref)))
        assert sigma == ref and ref == sigma
        assert len(sigma) == len(ref)
        assert list(sigma) == list(ref)
        assert list(sigma.values()) == list(ref.values())
        assert all(addr in sigma for addr in ref)
        assert missing not in sigma
        assert sigma.get(missing) is None and sigma.get(missing, v1) is v1
        assert sigma[a] is ref[a] and sigma.get(a) is ref[a]
    with pytest.raises(KeyError):
        sigma[missing]
    assert sigma != {a: v1} and sigma != Store({a: v1})
    assert Store(ref) == sigma
    # every earlier store still holds what it held when it was made
    for old, want in history:
        assert old == want


def test_plain_dict_store_still_steps():
    lp = corpus_program("throw_across_call")
    _, trace = run(lp, fuel=FUEL)
    for st in trace[:-1]:
        plain = ConcreteState(st.stmt, st.fp, dict(st.store), st.kont, st.time)
        assert step(lp, plain) == step(lp, st)
    start = trace[3]
    plain = ConcreteState(start.stmt, start.fp, dict(start.store),
                          start.kont, start.time)
    out, replay = run(lp, plain, fuel=FUEL)
    assert isinstance(out, Halted) and out.value.class_name == "Caught"
    assert replay[1:] == trace[4:]


# -- label histories ----------------------------------------------------------

LABELS = strategies.lists(strategies.integers(0, 60), max_size=40)


@given(LABELS)
def test_history_iterates_and_measures_like_its_labels(labels):
    t = hist(*labels)
    assert list(t) == labels
    assert len(t) == len(labels)


@given(LABELS)
def test_history_equality_is_structural(labels):
    a, b = hist(*labels), hist(*labels)
    assert a == b and hash(a) == hash(b)
    assert tick(7, a) == tick(7, b) and hash(tick(7, a)) == hash(tick(7, b))
    assert a != tuple(labels)  # a history never equals a tuple
    # a pop keeps the calls and makes a history unequal to the one before
    assert list(_popped(a)) == labels and _popped(a) == _popped(b)
    assert _popped(a) != a and tick(7, _popped(a)) != tick(7, a)
    assert hash(_popped(a)) == hash(_popped(b)) != hash(a)


@given(LABELS.filter(bool), strategies.data())
def test_history_differs_on_one_label(labels, data):
    t = hist(*labels)
    i = data.draw(strategies.integers(0, len(labels) - 1))
    other = data.draw(strategies.integers(0, 60).filter(lambda l: l != labels[i]))
    changed = hist(*labels[:i], other, *labels[i + 1:])
    fewer = hist(*labels[:i], *labels[i + 1:])
    assert t != changed and changed != t
    assert t != fewer and fewer != t


def _trace_lines(*times) -> list[str]:
    """The `--trace` lines of states whose frames have these histories."""
    stmt = corpus_program("minimal").stmt_by_label[1]
    states = [ConcreteState(stmt, FramePtr(0, t), {}, Halt(), t)
              for t in times]
    out = io.StringIO()
    _write_trace(states, out)
    return out.getvalue().splitlines()


@given(LABELS, strategies.data())
def test_history_renders_once_in_a_trace(labels, data):
    cells = [T0]                   # cells[k]: the k oldest labels
    for label in reversed(labels):
        cells.append(tick(label, cells[-1]))
    # an older cell rendered first defines the newest one's ancestors,
    # and a popped copy of a history renders as the same id
    k = data.draw(strategies.integers(0, len(labels)))
    lines = _trace_lines(cells[k], cells[-1], _popped(cells[-1]))
    assert trace_histories(lines) == [labels[len(labels) - k:], labels,
                                      labels]
    assert sum(len(json.loads(line).get("history", ()))
               for line in lines) == len(labels)


@given(LABELS, strategies.integers(0, 60))
def test_pointers_on_equal_histories_are_equal(labels, site):
    for make in (FramePtr, ObjPtr):
        p, q = make(site, hist(*labels)), make(site, hist(*labels))
        assert p == q and hash(p) == hash(q)
        assert p != make(site, tick(61, p.time))
    assert FramePtr(site, hist(*labels)) != ObjPtr(site, hist(*labels))


def test_long_histories_compare_render_and_free():
    # nothing on a history recurses: 200,000 cells are past any stack
    labels = list(range(200_000))
    a, b = hist(*labels), hist(*labels)
    assert a == b and len(a) == len(labels)
    assert trace_histories(_trace_lines(a)) == [labels]
    del a, b
