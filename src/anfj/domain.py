"""Abstract state-space and one-step transition function.

Control states are (statement, frame pointer, time) triples with the store
factored out: the engine keeps one store per control state and joins into
it monotonically. Stores map addresses to value SETS and every update is
weak (set union), so a store only ever grows along one transition.

The stack never appears in a state either. `next` sees at most one frame,
the current top of stack, and each of its rules names its own action on
it, as the pushdown system's edges are labelled: an assignment that is
not a call is Epsilon, a call pushes its CallFrame, a try its
HandlerFrame, and a return, a throw or a handler pop pops the top frame.
Multi-frame unwinding (exception dispatch, returns over handlers)
happens one frame per edge; the engine's pop edges re-enter the same
control state to expose the frame beneath. Each rule collects its
bindings and writes them into one new store (machine.Store.set), which
shares its unchanged entries with sigma rather than copying them.

Time stamps are the last k call-site labels: the concrete machine's
call history, cut to its newest k calls. k bounds the context fan-out:
k=0 gives one frame pointer per call site and one object pointer per
allocation site. With object sensitivity on, object pointers also
carry the allocation site of the allocating method's receiver. Pointers,
addresses and values are the concrete machine's records, on these times.
States, frames and stack actions are tuple records of the same kind:
each equals only a record of its own type, so Push(f) != Pop(f).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .machine import (
    Addr, FramePtr, ObjPtr, Store, Value, _typed_eq, _typed_ne,
    constructor_inits,
)
from .syntax import (
    THIS, Assign, Cast, FieldRef, Invoke, LabeledProgram, New, PopHandler,
    Return, Stmt, Throw, TryCatch, VarRef,
)

ATime = tuple[int, ...]


FP0A = FramePtr(None, ())
T0: ATime = ()


class ControlState(NamedTuple):
    stmt: Stmt
    fp: FramePtr
    time: ATime
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


class CallFrame(NamedTuple):
    var: str                       # caller variable receiving the result
    target: Stmt                   # caller statement to resume at
    fp: FramePtr
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


class HandlerFrame(NamedTuple):
    class_name: str
    var: str
    target: Stmt                   # handler head
    fp: FramePtr
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


Frame = CallFrame | HandlerFrame


class _Bottom:
    """Marker for 'the stack may be empty here'. Lives in top-frame sets
    next to real frames; it is not a Frame and owns no bindings, so it
    never enters the stack roots, which hold pointers."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<bottom>"


BOTTOM = _Bottom()


class Epsilon(NamedTuple):
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__

    def __repr__(self):
        return "eps"


class Push(NamedTuple):
    frame: Frame
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


class Pop(NamedTuple):
    frame: Frame
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


StackAction = Epsilon | Push | Pop
EPSILON = Epsilon()


@dataclass(frozen=True)
class Policy:
    """Analysis configuration: k, the call-site context depth;
    obj_sensitivity, which splits objects by their allocating receiver;
    gc, abstract garbage collection of each node's store; liveness,
    which restricts the collection's local roots to live variables; and
    mode, the stack abstraction (pushdown or finite). Every node keeps
    its own store."""

    k: int = 0
    obj_sensitivity: bool = False
    gc: bool = True
    liveness: bool = True
    mode: str = "pushdown"         # "pushdown" | "finite"

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if self.mode not in ("pushdown", "finite"):
            raise ValueError(f"unknown mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Stores: machine.Store, Addr -> frozenset[Value], updated weakly only, so
# each delta entry is a superset of the base entry it overrides.

def store_join(a: Mapping, b: Mapping, grew: Optional[dict] = None) -> Mapping:
    """Pointwise union. Returns a itself when b adds nothing to it, so
    `store_join(a, b) is a` tests growth; b itself when a is empty and
    b is not; otherwise a new Store. Neither argument is modified, and
    as stores are never mutated the result may share either of them.
    Store.join walks the whole of b, probing a for each address.
    When grew is given, each address whose value set the join changed
    is written into it with its new value set, so over a run of joins
    into one store grew holds the store's delta since it was emptied."""
    joined = (a if type(a) is Store else Store(a)).join(b, grew)
    return a if joined is None else joined


def _bind(sigma: Mapping, bindings: dict) -> Store:
    """A new store: sigma with each binding joined in (weak update). It
    is a new store even when sigma holds every binding already, so a
    rule returns sigma itself exactly when it writes no binding."""
    if type(sigma) is not Store:
        sigma = Store(sigma)
    get = sigma.get
    joined = {}
    for addr, vals in bindings.items():
        old = get(addr)
        joined[addr] = vals if old is None else old | vals
    return sigma.set(joined)


# ---------------------------------------------------------------------------
# Context policies

def tick(label: int, t: ATime, policy: Policy) -> ATime:
    """Record label as the most recent context element, keeping k of them.

    Only call transitions tick: times are call-site histories, so k=1
    distinguishes allocations made on behalf of different call sites.
    Every other transition carries its time through unchanged."""
    if policy.k == 0:
        return ()
    return ((label,) + t)[: policy.k]


# ---------------------------------------------------------------------------
# The abstract transition function

def _value_key(v: Value):
    op = v.op
    recv = op.recv if isinstance(op, ObjPtr) and op.recv is not None else -1
    return (v.class_name, op.site, op.time, recv)


def sorted_values(vals: Iterable[Value]) -> list[Value]:
    return sorted(vals, key=_value_key)


def next(lp: LabeledProgram, q: ControlState, sigma: Mapping,
         top_frame: Optional[Frame], policy: Policy,
         diags: Optional[list] = None,
         reads: Optional[set] = None) -> list[tuple[ControlState, StackAction, Mapping]]:
    """All abstract one-step successors of q under sigma with the given
    top-of-stack frame (None when the stack may be empty).

    Returns (state, action, store) triples. Each store is sigma with
    that rule's own bindings joined in, written into one new Store even
    when sigma already holds them all; it is sigma itself, the same
    object, exactly when the rule writes no binding. So a pop that only
    exposes the frame beneath (a return over a handler frame, a throw
    over a call frame or past a handler it does not match) is a
    self-edge carrying sigma itself, which the finite baseline tells by
    identity and drops. Unbound reads yield no successors and are
    recorded in diags when given.

    When reads is given, every address the rule looked up in sigma is
    added to it: variables (unbound ones too), the field of each
    receiver object, and the receiver under object sensitivity. The
    successors, their actions, the diagnostics and the bindings added
    depend on sigma only through those addresses. So on a store that
    differs from sigma at none of them, the result is the same, with
    each successor store joined with the difference; the engine relies
    on this to skip re-steps."""
    s = q.stmt
    fp, t = q.fp, q.time
    out: list[tuple[ControlState, StackAction, Mapping]] = []
    if reads is None:
        reads = set()
    get = sigma.get

    def note(reason: str):
        if diags is not None:
            diags.append((q, reason))

    def read(var: str) -> Optional[frozenset]:
        addr = Addr(var, fp)
        reads.add(addr)
        vals = get(addr)
        if not vals:
            note(f"unbound read of {var!r}")
            return None
        return vals

    def read_all(names) -> Optional[list]:
        """The value sets of names in order; None at the first unbound."""
        sets = []
        for name in names:
            vals = read(name)
            if vals is None:
                return None
            sets.append(vals)
        return sets

    if isinstance(s, Assign):
        e = s.exp
        nxt = lp.succ_map.get(s.label)
        dest = Addr(s.var, fp)
        if isinstance(e, (VarRef, Cast)):
            vals = read(e.var)
            if vals is not None and nxt is not None:
                out.append((ControlState(nxt, fp, t), EPSILON,
                            _bind(sigma, {dest: vals})))
        elif isinstance(e, FieldRef):
            vals = read(e.var)
            if vals is not None and nxt is not None:
                # join field contents across every receiver object
                pool = frozenset()
                for v in sorted_values(vals):
                    addr = Addr(e.field, v.op)
                    reads.add(addr)
                    pool |= get(addr, frozenset())
                if pool:
                    out.append((ControlState(nxt, fp, t), EPSILON,
                                _bind(sigma, {dest: pool})))
                else:
                    note(f"unbound field {e.field!r}")
        elif isinstance(e, Invoke):
            recv = read(e.receiver)
            arg_sets = (None if recv is None or nxt is None
                        else read_all(e.args))
            if arg_sets is not None:
                tc = tick(s.label, t, policy)
                fp2 = FramePtr(s.label, tc)
                push = Push(CallFrame(s.var, nxt, fp))
                for rv in sorted_values(recv):
                    m = lp.method_lookup(rv.class_name, e.method)
                    if m is None:
                        note(f"no method {e.method!r} on {rv.class_name!r}")
                        continue
                    bindings = {Addr(THIS, fp2): frozenset((rv,))}
                    for (_, pname), vals in zip(m.params, arg_sets):
                        bindings[Addr(pname, fp2)] = vals
                    out.append((ControlState(m.body[0], fp2, tc), push,
                                _bind(sigma, bindings)))
        elif isinstance(e, New):
            arg_sets = read_all(e.args)
            if arg_sets is not None and nxt is not None:
                recv_sites = [None]
                if policy.obj_sensitivity:
                    reads.add(Addr(THIS, fp))
                    this_vals = get(Addr(THIS, fp), ())
                    recv_sites = sorted({v.op.site for v in this_vals}) or [None]
                inits = list(constructor_inits(lp, e.class_name, arg_sets))
                bindings = {}
                made = []
                for rs in recv_sites:
                    op = ObjPtr(s.label, t, rs)
                    for fname, vals in inits:
                        bindings[Addr(fname, op)] = vals
                    made.append(Value(e.class_name, op))
                bindings[dest] = frozenset(made)
                out.append((ControlState(nxt, fp, t), EPSILON,
                            _bind(sigma, bindings)))
        return out

    if isinstance(s, TryCatch):
        frame = HandlerFrame(s.catch_class, s.catch_var, s.handler[0], fp)
        return [(ControlState(s.body[0], fp, t), Push(frame), sigma)]

    if isinstance(s, Return):
        vals = read(s.var)
        if vals is None or top_frame is None:
            return out                      # unbound, or halt level: terminal
        if isinstance(top_frame, CallFrame):
            sigma2 = _bind(sigma, {Addr(top_frame.var, top_frame.fp): vals})
            return [(ControlState(top_frame.target, top_frame.fp, t),
                     Pop(top_frame), sigma2)]
        return [(q, Pop(top_frame), sigma)]  # step over the handler frame

    if isinstance(s, Throw):
        vals = read(s.var)
        if vals is None or top_frame is None:
            return out                      # unbound, or uncaught terminal
        pop = Pop(top_frame)
        if isinstance(top_frame, CallFrame):
            return [(q, pop, sigma)]
        caught = ControlState(top_frame.target, top_frame.fp, t)
        dest = Addr(top_frame.var, top_frame.fp)
        missed = False
        for v in sorted_values(vals):
            if lp.subtype(v.class_name, top_frame.class_name):
                out.append((caught, pop, _bind(sigma, {dest: frozenset((v,))})))
            elif not missed:
                missed = True
                out.append((q, pop, sigma))
        return out

    if isinstance(s, PopHandler):
        nxt = lp.succ_map.get(s.label)
        if isinstance(top_frame, HandlerFrame) and nxt is not None:
            out.append((ControlState(nxt, fp, t), Pop(top_frame), sigma))
        return out

    raise TypeError(f"unknown statement {type(s).__name__}")


def inject_abstract(lp: LabeledProgram) -> ControlState:
    return ControlState(lp.first_stmt(lp.entry_method), FP0A, T0)


# ---------------------------------------------------------------------------
# Deterministic orderings for engine iteration and exports

def fp_key(fp: FramePtr):
    return (-1 if fp.site is None else fp.site, fp.time)


def op_key(op: ObjPtr):
    return (op.site, op.time, -1 if op.recv is None else op.recv)


def ptr_key(ptr):
    if isinstance(ptr, FramePtr):
        return (0,) + fp_key(ptr)
    return (1,) + op_key(ptr)


def addr_key(addr: Addr):
    return (addr.base,) + ptr_key(addr.ptr)


def frame_key(f):
    if f is BOTTOM:
        return (0, "", "", -1, (0, -1, ()))
    if isinstance(f, CallFrame):
        return (1, f.var, "", f.target.label, (0,) + fp_key(f.fp))
    return (2, f.var, f.class_name, f.target.label, (0,) + fp_key(f.fp))


def state_key(q: ControlState):
    return (q.stmt.label, fp_key(q.fp), q.time)


def action_key(a: StackAction):
    if isinstance(a, Epsilon):
        return (0, frame_key(BOTTOM))
    if isinstance(a, Push):
        return (1, frame_key(a.frame))
    return (2, frame_key(a.frame))
