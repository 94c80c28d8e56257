"""Abstract state-space and one-step transition function.

Control states are (statement, frame pointer, time) triples with the store
factored out: the engine keeps one store per control state and joins into
it monotonically. Stores map addresses to value SETS and every update is
weak (set union), so a store only ever grows along one transition.

The stack never appears in a state either. `next` sees at most one frame,
the current top of stack, and reports what it did to it as a StackAction:
Epsilon (untouched), Push(frame), or Pop(frame). Multi-frame unwinding
(exception dispatch, returns over handlers) happens one frame per edge;
the engine's pop edges re-enter the same control state to expose the
frame beneath.

Time stamps are the last k call-site labels: the concrete machine's
call history, cut to its newest k calls. k bounds the context fan-out:
k=0 gives one frame pointer per call site and one object pointer per
allocation site. With object sensitivity on, object pointers also
carry the allocation site of the allocating method's receiver. Pointers,
addresses and values are the concrete machine's records, on these times.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Optional

from .machine import Addr, FramePtr, ObjPtr, Value, constructor_levels
from .syntax import (
    THIS, Assign, Cast, FieldRef, Invoke, LabeledProgram, New, PopHandler,
    Return, Stmt, Throw, TryCatch, VarRef,
)

ATime = tuple[int, ...]


def cached_hash(cls):
    """Class decorator for a frozen dataclass used as a dict or set key
    over and over: its hash, the same value the dataclass would compute
    from its fields, is computed once per object and kept in an instance
    attribute that is not a field, so repr, == and field order stay as
    they were. The cache is dropped on pickling, because string hashes
    differ between processes."""
    key = attrgetter(*(f.name for f in fields(cls)))
    cls._hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(key(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


FP0A = FramePtr(None, ())
T0: ATime = ()


@cached_hash
@dataclass(frozen=True)
class ControlState:
    stmt: Stmt
    fp: FramePtr
    time: ATime


@cached_hash
@dataclass(frozen=True)
class CallFrame:
    var: str                       # caller variable receiving the result
    target: Stmt                   # caller statement to resume at
    fp: FramePtr


@cached_hash
@dataclass(frozen=True)
class HandlerFrame:
    class_name: str
    var: str
    target: Stmt                   # handler head
    fp: FramePtr


Frame = CallFrame | HandlerFrame


class _Bottom:
    """Marker for 'the stack may be empty here'. Lives in top-frame sets
    next to real frames and rides along into the possible-stack-frame
    summaries; it is not a Frame, and stack-root computation skips it."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<bottom>"


BOTTOM = _Bottom()


@dataclass(frozen=True)
class Epsilon:
    def __repr__(self):
        return "eps"


@dataclass(frozen=True)
class Push:
    frame: Frame


@dataclass(frozen=True)
class Pop:
    frame: Frame


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
# Stores: dict Addr -> frozenset[Value], used as immutable values.

AbstractStore = dict


def store_join(a: dict, b: dict, grew: Optional[set] = None) -> dict:
    """Pointwise union. Returns a itself when b adds nothing to it, so
    `store_join(a, b) is a` tests growth; b itself when a is empty and
    b is not; otherwise a new store. Neither argument is modified, and
    as stores are never mutated the result may share either of them.
    When grew is given, the addresses whose value set the join changed
    are added to it."""
    if not a and b:
        if grew is not None:
            grew.update(b)
        return b
    out = None
    for addr, vals in b.items():
        old = a.get(addr)
        if old is not None:
            if vals <= old:
                continue
            vals = old | vals
        if out is None:
            out = dict(a)
        out[addr] = vals
        if grew is not None:
            grew.add(addr)
    return a if out is None else out


def store_extend(sigma: dict, addr: Addr, vals: frozenset) -> dict:
    """sigma with vals joined in at addr (weak update)."""
    out = dict(sigma)
    old = out.get(addr)
    out[addr] = vals if old is None else old | vals
    return out


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


def alloc(label: int, t: ATime, policy: Policy, kind: str = "frame",
          receiver_site: Optional[int] = None) -> FramePtr | ObjPtr:
    """A pointer for the activation or object born at label under time t.

    Frame pointers are always (label, time). Object pointers gain the
    receiver's allocation site when object sensitivity is on."""
    if kind == "frame":
        return FramePtr(label, t)
    if kind == "object":
        recv = receiver_site if policy.obj_sensitivity else None
        return ObjPtr(label, t, recv)
    raise ValueError(f"unknown alloc kind {kind!r}")


# ---------------------------------------------------------------------------
# Stack-action classification (one-frame views)

def decide_stack_action(before: tuple, after: tuple) -> StackAction:
    """Compare one-frame continuation views around a transition.

    Equal views are Epsilon; after extending before by one frame is a
    Push; before extending after by one frame is a Pop."""
    if before == after:
        return EPSILON
    if after[1:] == before:
        return Push(after[0])
    if before[1:] == after:
        return Pop(before[0])
    raise ValueError("continuation views differ by more than one frame")


# ---------------------------------------------------------------------------
# The abstract transition function

def _constructor_delta(lp: LabeledProgram, class_name: str, op: ObjPtr,
                       arg_sets: tuple) -> dict:
    """Abstract constructor chain: each field address gets the value set of
    the parameter it is initialised from."""
    delta: dict = {}
    for konst, env in constructor_levels(lp, class_name, arg_sets):
        for fname, pname in konst.inits:
            addr = Addr(fname, op)
            old = delta.get(addr, frozenset())
            delta[addr] = old | env[pname]
    return delta


def _value_key(v: Value):
    op = v.op
    recv = op.recv if isinstance(op, ObjPtr) and op.recv is not None else -1
    return (v.class_name, op.site, op.time, recv)


def sorted_values(vals: Iterable[Value]) -> list[Value]:
    return sorted(vals, key=_value_key)


def next(lp: LabeledProgram, q: ControlState, sigma: dict,
         top_frame: Optional[Frame], policy: Policy,
         diags: Optional[list] = None,
         reads: Optional[set] = None) -> list[tuple[ControlState, StackAction, dict]]:
    """All abstract one-step successors of q under sigma with the given
    top-of-stack frame (None when the stack may be empty).

    Returns (state, action, store) triples; each store is sigma extended
    by that rule's own bindings, and is sigma itself, the same object,
    exactly when the rule adds none. So a pop that only exposes the
    frame beneath (a return over a handler frame, a throw over a call
    frame or past a handler it does not match) is a self-edge carrying
    sigma itself, which the finite baseline drops. Unbound reads yield
    no successors and are recorded in diags when given.

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
    before = () if top_frame is None else (top_frame,)
    out: list[tuple[ControlState, StackAction, dict]] = []
    if reads is None:
        reads = set()

    def note(reason: str):
        if diags is not None:
            diags.append((q, reason))

    def read(var: str) -> Optional[frozenset]:
        addr = Addr(var, fp)
        reads.add(addr)
        vals = sigma.get(addr)
        if not vals:
            note(f"unbound read of {var!r}")
            return None
        return vals

    def emit(stmt2: Stmt, fp2: FramePtr, sigma2: dict, after: tuple,
             time2: ATime = t):
        out.append((ControlState(stmt2, fp2, time2),
                    decide_stack_action(before, after), sigma2))

    if isinstance(s, Assign):
        e = s.exp
        nxt = lp.succ_map.get(s.label)
        if isinstance(e, (VarRef, Cast)):
            src = e.var
            vals = read(src)
            if vals is not None and nxt is not None:
                emit(nxt, fp, store_extend(sigma, Addr(s.var, fp), vals), before)
        elif isinstance(e, FieldRef):
            vals = read(e.var)
            if vals is not None and nxt is not None:
                # join field contents across every receiver object
                pool = frozenset()
                for v in sorted_values(vals):
                    addr = Addr(e.field, v.op)
                    reads.add(addr)
                    pool |= sigma.get(addr, frozenset())
                if pool:
                    emit(nxt, fp, store_extend(sigma, Addr(s.var, fp), pool), before)
                else:
                    note(f"unbound field {e.field!r}")
        elif isinstance(e, Invoke):
            recv = read(e.receiver)
            if recv is not None and nxt is not None:
                arg_sets = []
                ok = True
                for a in e.args:
                    vals = read(a)
                    if vals is None:
                        ok = False
                        break
                    arg_sets.append(vals)
                if ok:
                    tc = tick(s.label, t, policy)
                    fp2 = alloc(s.label, tc, policy, "frame")
                    frame = CallFrame(s.var, nxt, fp)
                    for rv in sorted_values(recv):
                        m = lp.method_lookup(rv.class_name, e.method)
                        if m is None:
                            note(f"no method {e.method!r} on {rv.class_name!r}")
                            continue
                        sigma2 = store_extend(sigma, Addr(THIS, fp2), frozenset((rv,)))
                        for (_, pname), vals in zip(m.params, arg_sets):
                            sigma2 = store_extend(sigma2, Addr(pname, fp2), vals)
                        emit(m.body[0], fp2, sigma2, (frame,) + before, tc)
        elif isinstance(e, New):
            arg_sets = []
            ok = True
            for a in e.args:
                vals = read(a)
                if vals is None:
                    ok = False
                    break
                arg_sets.append(vals)
            if ok and nxt is not None:
                if policy.obj_sensitivity:
                    reads.add(Addr(THIS, fp))
                    this_vals = sigma.get(Addr(THIS, fp), frozenset())
                    recv_sites = sorted({v.op.site for v in this_vals}) or [None]
                else:
                    recv_sites = [None]
                sigma2 = sigma
                made = []
                for rs in recv_sites:
                    op = alloc(s.label, t, policy, "object", rs)
                    delta = _constructor_delta(lp, e.class_name, op, tuple(arg_sets))
                    for addr, vals in delta.items():
                        sigma2 = store_extend(sigma2, addr, vals)
                    made.append(Value(e.class_name, op))
                sigma2 = store_extend(sigma2, Addr(s.var, fp), frozenset(made))
                emit(nxt, fp, sigma2, before)
        return out

    if isinstance(s, TryCatch):
        frame = HandlerFrame(s.catch_class, s.catch_var, s.handler[0], fp)
        emit(s.body[0], fp, sigma, (frame,) + before)
        return out

    if isinstance(s, Return):
        vals = read(s.var)
        if vals is None or top_frame is None:
            return out                      # unbound, or halt level: terminal
        if isinstance(top_frame, CallFrame):
            sigma2 = store_extend(sigma, Addr(top_frame.var, top_frame.fp), vals)
            emit(top_frame.target, top_frame.fp, sigma2, ())
        else:                               # step over the handler frame
            emit(s, fp, sigma, ())
        return out

    if isinstance(s, Throw):
        vals = read(s.var)
        if vals is None or top_frame is None:
            return out                      # unbound, or uncaught terminal
        if isinstance(top_frame, CallFrame):
            emit(s, fp, sigma, ())
        else:
            missed = False
            for v in sorted_values(vals):
                if lp.subtype(v.class_name, top_frame.class_name):
                    sigma2 = store_extend(
                        sigma, Addr(top_frame.var, top_frame.fp), frozenset((v,)))
                    emit(top_frame.target, top_frame.fp, sigma2, ())
                elif not missed:
                    missed = True
                    emit(s, fp, sigma, ())
        return out

    if isinstance(s, PopHandler):
        nxt = lp.succ_map.get(s.label)
        if isinstance(top_frame, HandlerFrame) and nxt is not None:
            emit(nxt, fp, sigma, ())
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
