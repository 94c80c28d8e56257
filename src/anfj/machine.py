"""Concrete small-step machine for ANFJ.

States are (statement, frame pointer, store, continuation stack, time).
Time is the label history, most recent first, so (label, time) pairs
handed out by the allocator are fresh at every step. A history is a
linked `Time` cell that ticking extends and successive states share, so
a tick, a pointer hash and an equality test of a fresh pointer cost
O(1) rather than O(steps so far). The store maps
(name, pointer) addresses to class/object-pointer values and is updated
strongly. The analyzer shares the pointer, address and value records,
with tuples of its last k call-site labels as times. Stores are immutable `Store` mappings that successive states
share rather than copy: a step writes a few addresses into a new store
that keeps its predecessor's entries by reference, so a step costs
O(sqrt(|store|)) amortized, not O(|store|). Continuations are a
linked stack of call frames and handler frames; exception dispatch walks
it one frame per step, which is what the abstract pushdown system later
mirrors edge for edge.

The machine is deterministic: at most one rule applies to any state.
Non-terminal states with no applicable rule are stuck (unbound reads,
failed dispatch), reported as an Outcome rather than an exception.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .syntax import (
    OBJECT, THIS, Assign, Cast, FieldRef, Invoke, LabeledProgram, New,
    PopHandler, Return, Stmt, Throw, TryCatch, VarRef,
)

class Time:
    """A label history, most recent first: a cons cell (label, rest)
    over the empty history T0. Histories are immutable and shared, so
    a tick makes one cell and copies nothing. Each cell caches its hash
    and length when it is made, and the text of its labels once asked
    for (`json_body`). Equality is structural, so separate runs compare
    equal: histories that differ in hash or length are unequal at once;
    otherwise a walk down both stops at the first labels that differ or
    at a cell the two share. Iteration gives the labels, most recent
    first."""

    __slots__ = ("label", "rest", "_len", "_hash", "_text")

    def __init__(self, label: int, rest: Time):
        self.label = label
        self.rest = rest
        self._len = rest._len + 1
        self._hash = hash((label, rest._hash))
        self._text = None

    def __len__(self):
        return self._len

    def __iter__(self):
        t = self
        while t._len:
            yield t.label
            t = t.rest

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Time):
            return NotImplemented
        if self._hash != other._hash or self._len != other._len:
            return False
        a, b = self, other
        while a is not b:          # equal lengths reach T0 together
            if a.label != b.label:
                return False
            a, b = a.rest, b.rest
        return True

    def json_body(self) -> str:
        """The labels as json.dumps prints the body of a list of them,
        "3, 2, 1" for the history 3, 2, 1. Kept on the cell; a first call
        joins only the labels above the nearest cell already rendered."""
        above = []
        t = self
        while t._text is None:
            above.append(str(t.label))
            t = t.rest
        if t._text:
            above.append(t._text)
        self._text = ", ".join(above)
        return self._text

    def __repr__(self):
        return f"Time({', '.join(map(str, self))})"


# the empty history: the one cell with no label and no rest
T0 = object.__new__(Time)
T0.label, T0.rest, T0._len, T0._hash, T0._text = None, None, 0, hash(()), ""


def tick(label: int, t: Time) -> Time:
    return Time(label, t)


# Pointers, addresses and values are tuple records: each hashes as its
# field tuple, in C, and equals only a record of its own type, never one
# of another type with the same fields, nor a plain tuple.
_tuple_eq = tuple.__eq__


def _typed_eq(self, other):
    return self.__class__ is other.__class__ and _tuple_eq(self, other)


def _typed_ne(self, other):
    return not _typed_eq(self, other)


class FramePtr(NamedTuple):
    """An activation's pointer: its call site (None for the entry
    activation) and a time. The machine's times are `Time` histories;
    the analyzer's are tuples of its last k call-site labels. An ObjPtr
    is an allocated object's pointer, made the same way."""

    site: Optional[int]
    time: Time | tuple[int, ...]
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


class ObjPtr(NamedTuple):
    site: int
    time: Time | tuple[int, ...]
    recv: Optional[int] = None     # receiver allocation site (object sensitivity)
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


FP0 = FramePtr(None, T0)


class Addr(NamedTuple):
    base: str                      # variable or field name
    ptr: FramePtr | ObjPtr
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


class Value(NamedTuple):
    class_name: str
    op: ObjPtr
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


# continuations ---------------------------------------------------------------

@dataclass(frozen=True)
class Halt:
    pass


def _kont_eq(a, b) -> bool:
    # iterative: chains can be thousands of frames deep
    while True:
        if a is b:
            return True
        if type(a) is not type(b):
            return False
        if isinstance(a, Halt):
            return True
        if isinstance(a, Fun):
            if a.var != b.var or a.target != b.target or a.fp != b.fp:
                return False
        else:
            if (a.class_name != b.class_name or a.var != b.var
                    or a.target != b.target or a.fp != b.fp):
                return False
        a, b = a.next, b.next


@dataclass(frozen=True, eq=False)
class Fun:
    var: str                       # caller variable receiving the result
    target: Stmt                   # statement to resume at
    fp: FramePtr                   # caller frame pointer
    next: "Kont"

    def __eq__(self, other):
        return isinstance(other, (Fun, Handle, Halt)) and _kont_eq(self, other)

    def __hash__(self):
        # shallow on purpose: hashing must not walk the chain
        return hash(("Fun", self.var, self.target, self.fp))


@dataclass(frozen=True, eq=False)
class Handle:
    class_name: str                # caught class
    var: str                       # catch variable
    target: Stmt                   # handler head
    fp: FramePtr
    next: "Kont"

    def __eq__(self, other):
        return isinstance(other, (Fun, Handle, Halt)) and _kont_eq(self, other)

    def __hash__(self):
        return hash(("Handle", self.class_name, self.var, self.target, self.fp))


Kont = Halt | Fun | Handle
HALT = Halt()


def kont_frames(k: Kont) -> list[Kont]:
    out = []
    while not isinstance(k, Halt):
        out.append(k)
        k = k.next
    return out


# stores ----------------------------------------------------------------------

class Store(Mapping):
    """An immutable store: a base dict, shared by many stores, under a
    small delta dict of this store's own, whose entries win.

    `set` copies only the delta. Once the delta's size squared exceeds
    the base's size, it folds the delta into a fresh base instead, so a
    write costs O(sqrt(n)) amortized for a store of n entries, with no
    constant to tune. Neither dict is ever written after the store that
    owns it is made, so stores may share them freely. Iteration follows
    the insertion order a dict updated in place would have."""

    __slots__ = ("_base", "_delta")

    def __init__(self, entries=()):
        self._base = dict(entries)
        self._delta = {}

    def set(self, updates: dict) -> "Store":
        """This store with updates written over it."""
        base = self._base
        delta = {**self._delta, **updates}
        if len(delta) ** 2 > len(base):
            base = {**base, **delta}
            delta = {}
        out = object.__new__(Store)
        out._base, out._delta = base, delta
        return out

    def __getitem__(self, addr):
        delta = self._delta
        if addr in delta:
            return delta[addr]
        return self._base[addr]

    def get(self, addr, default=None):
        delta = self._delta
        if addr in delta:
            return delta[addr]
        return self._base.get(addr, default)

    def __contains__(self, addr):
        return addr in self._delta or addr in self._base

    def __iter__(self):
        base = self._base
        yield from base
        for addr in self._delta:
            if addr not in base:
                yield addr

    def __len__(self):
        base = self._base
        return len(base) + sum(1 for addr in self._delta if addr not in base)

    def __repr__(self):
        return f"Store({dict(self.items())!r})"


# states and outcomes ---------------------------------------------------------

@dataclass(frozen=True)
class ConcreteState:
    stmt: Stmt
    fp: FramePtr
    store: Mapping[Addr, Value]      # a Store; a plain dict is accepted
    kont: Kont
    time: Time


@dataclass(frozen=True)
class Halted:
    value: Value


@dataclass(frozen=True)
class Uncaught:
    value: Value


@dataclass(frozen=True)
class Stuck:
    state: ConcreteState
    reason: str


@dataclass(frozen=True)
class FuelExhausted:
    state: ConcreteState


Outcome = Halted | Uncaught | Stuck | FuelExhausted


class StuckError(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def inject(lp: LabeledProgram) -> ConcreteState:
    """Initial state: the entry method's first statement, fresh frame,
    empty store, halt continuation, empty time."""
    entry = lp.entry_method
    return ConcreteState(lp.first_stmt(entry), FP0, Store(), HALT, T0)


def is_terminal(st: ConcreteState) -> bool:
    return isinstance(st.kont, Halt) and isinstance(st.stmt, (Return, Throw))


def _lookup(st: ConcreteState, var: str) -> Value:
    v = st.store.get(Addr(var, st.fp))
    if v is None:
        raise StuckError(f"unbound variable {var!r}")
    return v


def _succ(lp: LabeledProgram, s: Stmt) -> Stmt:
    nxt = lp.succ_map.get(s.label)
    if nxt is None:
        raise StuckError(f"no successor for label {s.label}")
    return nxt


def constructor_levels(lp: LabeledProgram, class_name: str,
                       args: tuple) -> list:
    """The constructors of class_name's chain as (konst, env) pairs, root
    first: env binds each parameter to its argument, and each super call
    forwards the arguments it names. The walk is iterative, so a chain
    of any depth fits in the interpreter's stack."""
    levels = []
    cname, argv = class_name, list(args)
    while cname != OBJECT:
        _, konst = lp.class_lookup(cname)
        env = {name: val for (_, name), val in zip(konst.params, argv)}
        levels.append((konst, env))
        cname = lp.classes[cname].parent
        argv = [env[a] for a in konst.super_args]
    levels.reverse()
    return levels


def apply_constructor(lp: LabeledProgram, class_name: str, op: ObjPtr,
                      args: tuple[Value, ...]) -> tuple[dict[Addr, Value], ObjPtr]:
    """Run the constructor chain for class_name against the fresh object
    pointer op: parameters bind positionally, the super call forwards its
    parameter prefix, and each this.f = x init writes one field address,
    root class first. Returns the store delta and op."""
    delta: dict[Addr, Value] = {}
    for konst, env in constructor_levels(lp, class_name, args):
        for fname, pname in konst.inits:
            delta[Addr(fname, op)] = env[pname]
    return delta, op


def step(lp: LabeledProgram, st: ConcreteState) -> ConcreteState:
    """One transition. Raises StuckError when no rule applies and
    ValueError on terminal states."""
    if is_terminal(st):
        raise ValueError("step on terminal state")
    s, fp, sigma, kont, t = st.stmt, st.fp, st.store, st.kont, st.time
    if not isinstance(sigma, Store):
        sigma = Store(sigma)
    t2 = tick(s.label, t)

    if isinstance(s, Assign):
        e = s.exp
        if isinstance(e, VarRef):
            d = _lookup(st, e.var)
            return ConcreteState(_succ(lp, s), fp,
                                 sigma.set({Addr(s.var, fp): d}), kont, t2)
        if isinstance(e, Cast):
            # the value moves unchanged; the named class is not consulted
            d = _lookup(st, e.var)
            return ConcreteState(_succ(lp, s), fp,
                                 sigma.set({Addr(s.var, fp): d}), kont, t2)
        if isinstance(e, FieldRef):
            d = _lookup(st, e.var)
            fv = sigma.get(Addr(e.field, d.op))
            if fv is None:
                raise StuckError(f"unbound field {e.field!r} on {d.class_name}")
            return ConcreteState(_succ(lp, s), fp,
                                 sigma.set({Addr(s.var, fp): fv}), kont, t2)
        if isinstance(e, Invoke):
            d0 = _lookup(st, e.receiver)
            method = lp.method_lookup(d0.class_name, e.method)
            if method is None:
                raise StuckError(f"no method {e.method!r} on class {d0.class_name!r}")
            argv = [_lookup(st, a) for a in e.args]
            fp2 = FramePtr(s.label, t2)
            frame = {Addr(THIS, fp2): d0}
            for (_, pname), val in zip(method.params, argv):
                frame[Addr(pname, fp2)] = val
            kont2 = Fun(s.var, _succ(lp, s), fp, kont)
            return ConcreteState(lp.first_stmt(method), fp2, sigma.set(frame),
                                 kont2, t2)
        if isinstance(e, New):
            argv = tuple(_lookup(st, a) for a in e.args)
            op = ObjPtr(s.label, t2)
            delta, op = apply_constructor(lp, e.class_name, op, argv)
            delta[Addr(s.var, fp)] = Value(e.class_name, op)
            return ConcreteState(_succ(lp, s), fp, sigma.set(delta), kont, t2)
        raise StuckError(f"unknown expression {e!r}")

    if isinstance(s, TryCatch):
        kont2 = Handle(s.catch_class, s.catch_var, s.handler[0], fp, kont)
        return ConcreteState(_succ(lp, s), fp, sigma, kont2, t2)

    if isinstance(s, Return):
        d = _lookup(st, s.var)
        if isinstance(kont, Fun):
            return ConcreteState(kont.target, kont.fp,
                                 sigma.set({Addr(kont.var, kont.fp): d}),
                                 kont.next, t2)
        if isinstance(kont, Handle):
            return ConcreteState(s, fp, sigma, kont.next, t2)
        raise StuckError("return with empty continuation")  # unreachable, run() handles

    if isinstance(s, Throw):
        d = _lookup(st, s.var)
        if isinstance(kont, Handle):
            if lp.subtype(d.class_name, kont.class_name):
                return ConcreteState(kont.target, kont.fp,
                                     sigma.set({Addr(kont.var, kont.fp): d}),
                                     kont.next, t2)
            return ConcreteState(s, fp, sigma, kont.next, t2)
        if isinstance(kont, Fun):
            return ConcreteState(s, fp, sigma, kont.next, t2)
        raise StuckError("throw with empty continuation")  # unreachable, run() handles

    if isinstance(s, PopHandler):
        if isinstance(kont, Handle):
            return ConcreteState(_succ(lp, s), fp, sigma, kont.next, t2)
        raise StuckError("pophandler without a handler frame on top")

    raise StuckError(f"unknown statement {type(s).__name__}")


DEFAULT_FUEL = 100_000


def run(lp: LabeledProgram, state0: Optional[ConcreteState] = None,
        fuel: int = DEFAULT_FUEL) -> tuple[Outcome, list[ConcreteState]]:
    """Drive the machine from state0 (default: inject(lp)).

    Returns the outcome and the visited-state trace; at most fuel states
    are visited and stored. The states' stores share their entries (see
    Store), so keeping the whole trace costs far less than a store copy
    per state."""
    st = inject(lp) if state0 is None else state0
    if fuel <= 0:
        return FuelExhausted(st), []
    trace = [st]
    while not is_terminal(st):
        if len(trace) == fuel:
            return FuelExhausted(st), trace
        try:
            st = step(lp, st)
        except StuckError as err:
            return Stuck(st, err.reason), trace
        trace.append(st)
    s = st.stmt
    try:
        d = _lookup(st, s.var)
    except StuckError as err:
        return Stuck(st, err.reason), trace
    if isinstance(s, Return):
        return Halted(d), trace
    return Uncaught(d), trace
