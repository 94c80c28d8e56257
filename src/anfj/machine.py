"""Concrete small-step machine for ANFJ.

States are (statement, frame pointer, store, continuation stack, time).
Time is the call history: the labels of the calls made so far, most
recent first, as in the analyzer, and a count of the call frames
popped so far. Only a call ticks, consing its label onto the history,
as `domain.tick` does; a step that pops a call frame, by a return or by
a throw unwinding past it, counts the pop; every other step carries the
history object unchanged. Pointers are (label, time) pairs, and are
fresh at every allocation: each call makes a longer history than any
before it, and ANFJ has no loops, so within one activation no label
runs twice between two calls. Two activations of one method can each
run the same allocation after their last call, the inner one first;
the pop that leaves the inner one lies between the two, and the pop
count tells them apart. The analyzer's times are the newest k call
labels, so a concrete time abstracts to its first k labels, and the
pop count is forgotten.

A history is a linked `Time` cell that a call extends and successive
states share, so a tick, a pointer hash and an equality test of a fresh
pointer cost O(1) rather than O(calls so far), and a `--trace` prints
each history once (`cli._write_trace`). The store maps
(name, pointer) addresses to class/object-pointer values and is updated
strongly. The analyzer shares the pointer, address and value records,
and the store type. Stores are immutable `Store` mappings that
successive states share rather than copy: a step writes a few
addresses into a new store that keeps its predecessor's entries by
reference, so a step costs O(sqrt(|store|)) amortized, not O(|store|). Continuations are a linked
stack of call frames and handler frames; exception dispatch walks it
one frame per step, which is what the abstract pushdown system later
mirrors edge for edge. States, continuation frames and outcomes are
tuple records, like pointers and addresses.

The machine is deterministic: at most one rule applies to any state.
Non-terminal states with no applicable rule are stuck (unbound reads,
failed dispatch), reported as an Outcome rather than an exception.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from typing import NamedTuple, Optional

from .syntax import (
    OBJECT, THIS, Assign, Cast, FieldRef, Invoke, LabeledProgram, New,
    PopHandler, Return, Stmt, Throw, TryCatch, VarRef,
)

class Time:
    """A call history, most recent call first: a cons cell (label, rest)
    over the empty history T0, with `pops`, the number of call frames
    popped so far. Histories are immutable and shared, so a tick makes
    one cell and copies nothing. Each cell caches its hash and length
    when it is made. Equality is structural, so separate runs compare
    equal: two histories are equal when their labels and pop counts
    are. Histories that differ in hash, length or pops are unequal at
    once; otherwise a walk down both stops at the first labels that
    differ or at a cell the two share. The hash covers the pops as well
    as the labels (`_lhash`, the labels' hash, is what a new cell builds
    on): the activations of a recursion that each allocate after their
    last call share their labels and differ only in pops, and one hash
    for all of them would make every store probe walk through them all.
    Iteration gives the labels, most recent first."""

    __slots__ = ("label", "rest", "pops", "_len", "_lhash", "_hash")

    def __init__(self, label: int, rest: Time):
        self.label = label
        self.rest = rest
        self.pops = rest.pops
        self._len = rest._len + 1
        self._lhash = lhash = hash((label, rest._lhash))
        self._hash = hash((lhash, self.pops))

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
        if (self._hash != other._hash or self._len != other._len
                or self.pops != other.pops):
            return False
        a, b = self, other
        while a is not b:          # equal lengths reach T0 together
            if a.label != b.label:
                return False
            a, b = a.rest, b.rest
        return True

    def __repr__(self):
        pops = f", pops={self.pops}" if self.pops else ""
        return f"Time({', '.join(map(str, self))}{pops})"


# the empty history: the one cell with no label and no rest
T0 = object.__new__(Time)
T0.label, T0.rest, T0.pops, T0._len = None, None, 0, 0
T0._lhash = hash(())
T0._hash = hash((T0._lhash, 0))


def tick(label: int, t: Time) -> Time:
    """The history after a call at label: the one rule that ticks."""
    return Time(label, t)


def _popped(t: Time) -> Time:
    """The history after a call frame is popped: t's calls, one more pop."""
    out = object.__new__(Time)
    out.label, out.rest, out._len, out._lhash = (
        t.label, t.rest, t._len, t._lhash)
    out.pops = pops = t.pops + 1
    out._hash = hash((t._lhash, pops))
    return out


# Pointers, addresses and values are tuple records, as are the
# analyzer's states, frames and stack actions: each hashes as its field
# tuple, in C, and equals only a record of its own type, never one of
# another type with the same fields, nor a plain tuple.
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

class Halt(NamedTuple):
    """The empty continuation."""
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


def _kont_eq(a, b) -> bool:
    # iterative: chains can be thousands of frames deep. A frame's last
    # field is the frame beneath; the slice before it is a plain tuple.
    while a is not b:
        if a.__class__ is not b.__class__:
            return False
        if a.__class__ is Halt:
            return True
        if a[:-1] != b[:-1]:
            return False
        a, b = a[-1], b[-1]
    return True


def _kont_ne(a, b) -> bool:
    return not _kont_eq(a, b)


class Fun(NamedTuple):
    var: str                       # caller variable receiving the result
    target: Stmt                   # statement to resume at
    fp: FramePtr                   # caller frame pointer
    next: Kont
    __eq__, __ne__ = _kont_eq, _kont_ne

    def __hash__(self):
        # shallow on purpose: hashing must not walk the chain
        return hash(("Fun", self.var, self.target, self.fp))


class Handle(NamedTuple):
    class_name: str                # caught class
    var: str                       # catch variable
    target: Stmt                   # handler head
    fp: FramePtr
    next: Kont
    __eq__, __ne__ = _kont_eq, _kont_ne

    def __hash__(self):
        return hash(("Handle", self.class_name, self.var, self.target, self.fp))


Kont = Halt | Fun | Handle
HALT = Halt()


# stores ----------------------------------------------------------------------

class Store(Mapping):
    """An immutable store, the one store type of both machines: a base
    dict, shared by many stores, under a small delta dict of this
    store's own, whose entries win.

    `set` copies only the delta. Once the delta's size squared exceeds
    the base's size, it folds the delta into a fresh base instead, so a
    write costs O(sqrt(n)) amortized for a store of n entries, with no
    constant to tune. Neither dict is ever written after the store that
    owns it is made, so stores may share them freely. Iteration follows
    the insertion order a dict updated in place would have. `==` and
    `diff` compare two stores over one base by their deltas alone.

    The concrete machine updates strongly. The analyzer's stores map
    addresses to value sets and are only ever updated weakly, by union
    (`join`), so in them every delta entry is a superset of the base
    entry it overrides. That weak-update invariant lets `join` probe a
    store's base alone and check only what its delta overrides, and
    lets `join` and the readers of value-set unions take a store by its
    `layers`, and many stores by their `union_layers`, each base once,
    without merging a delta into its base; the concrete machine calls
    neither."""

    __slots__ = ("_base", "_delta")

    def __init__(self, entries=()):
        self._base = dict(entries)
        self._delta = {}

    @staticmethod
    def of(entries: Mapping) -> "Store":
        """entries itself when it is a Store, else a Store of them."""
        return entries if type(entries) is Store else Store(entries)

    @staticmethod
    def adopt(entries: dict) -> "Store":
        """A Store over the dict entries itself, not a copy: for a dict
        just built, which its maker never writes again."""
        out = object.__new__(Store)
        out._base, out._delta = entries, {}
        return out

    def set(self, updates: dict) -> "Store":
        """This store with updates written over it."""
        base, delta = self._base, self._delta
        if delta:
            delta = {**delta, **updates}
            if len(delta) ** 2 > len(base):
                base, delta = {**base, **delta}, {}
        elif len(updates) ** 2 > len(base):
            base, delta = {**base, **updates}, {}
        else:
            delta = dict(updates)
        out = object.__new__(Store)
        out._base, out._delta = base, delta
        return out

    def join(self, other: Mapping, grew: Optional[dict] = None):
        """The analyzer's join: this store with each of other's value
        sets unioned into its own, as a new Store; other itself when
        this store is empty and other is not; None when other adds
        nothing. When grew is given, each address whose value set the
        join changes is written into it with its new value set."""
        base, delta = self._base, self._delta
        if not base and not delta:
            if not other:
                return None
            if grew is not None:
                grew.update(other.items())
            return other
        # Under the weak-update invariant other's layers hold its value
        # sets between them, and this store's delta holds its base's: so
        # each entry probes the base alone, and what is set in the delta
        # is checked again against it.
        get = base.get
        updates = {}
        for layer in Store.layers(other):
            for addr, vals in layer.items():
                old = get(addr)
                if old is not None:
                    if vals <= old:
                        continue
                    vals = old | vals
                updates[addr] = vals
        for addr, old in delta.items():
            vals = updates.get(addr)
            if vals is not None:
                if vals <= old:
                    del updates[addr]
                else:
                    updates[addr] = old | vals
        if not updates:
            return None
        if grew is not None:
            grew.update(updates)
        return self.set(updates)

    def diff(self, other: Mapping) -> tuple[dict, list]:
        """(changed, dropped): the entries of this store that other
        lacks or binds otherwise, compared by identity and then by ==,
        and the addresses other binds that this store does not. When
        other is a Store over the same base, the entries outside both
        deltas are the base's own, so only the deltas are read."""
        if type(other) is Store and other._base is self._base:
            base, mine, theirs = self._base, self._delta, other._delta
            changed = {a: v for a, v in mine.items()
                       if (w := other.get(a)) is not v and w != v}
            dropped = []
            for a, w in theirs.items():
                if a not in mine:
                    v = base.get(a)
                    if v is None:
                        dropped.append(a)
                    elif v is not w and v != w:
                        changed[a] = v
            return changed, dropped
        mine = self._dict()
        if type(other) is Store:
            other = other._dict()
        changed = {a: v for a, v in mine.items()
                   if (w := other.get(a)) is not v and w != v}
        # other binds the entries outside changed alike, so it binds
        # more than this store only if it is larger than those
        dropped = ([a for a in other if a not in mine]
                   if len(other) > len(mine) - len(changed) else [])
        return changed, dropped

    @staticmethod
    def layers(sigma: Mapping) -> tuple:
        """sigma's base, then its delta when it has one; a mapping that
        is not a Store, alone. A dict written with them in turn holds
        sigma's entries, in its order, and under the weak-update
        invariant a union of value sets over them is the union over
        sigma."""
        if type(sigma) is not Store:
            return (sigma,)
        delta = sigma._delta
        return (sigma._base, delta) if delta else (sigma._base,)

    @staticmethod
    def union_layers(stores):
        """Mappings whose union of value sets is, under the weak-update
        invariant, the union over stores: each distinct base once, each
        Store's delta, and any other mapping whole."""
        bases: dict = {}               # id -> base, kept alive
        for sigma in stores:
            if type(sigma) is not Store:
                yield sigma
                continue
            base = sigma._base
            if id(base) not in bases:
                bases[id(base)] = base
                yield base
            if sigma._delta:
                yield sigma._delta

    def _dict(self) -> dict:
        """The entries as one dict: the base itself when the delta is
        empty, else a merged copy. Not to be written."""
        delta = self._delta
        return {**self._base, **delta} if delta else self._base

    # Values are never None, so one probe of the delta tells whether it
    # binds addr: an equal key that is another object costs an __eq__
    # call in Python, which a second probe would pay again.
    def __getitem__(self, addr):
        delta = self._delta
        if delta:
            v = delta.get(addr)
            if v is not None:
                return v
        return self._base[addr]

    def get(self, addr, default=None):
        delta = self._delta
        if delta:
            v = delta.get(addr)
            if v is not None:
                return v
        return self._base.get(addr, default)

    def __contains__(self, addr):
        delta = self._delta
        return (delta and addr in delta) or addr in self._base

    def __iter__(self):
        base = self._base
        yield from base
        for addr in self._delta:
            if addr not in base:
                yield addr

    # With a delta, the Mapping views read entry by entry rather than
    # merge a copy; the hot readers of whole stores take their layers.
    def items(self):
        return ItemsView(self) if self._delta else self._base.items()

    def values(self):
        return ValuesView(self) if self._delta else self._base.values()

    def __bool__(self):
        return bool(self._base) or bool(self._delta)

    def __len__(self):
        base, delta = self._base, self._delta
        if not delta:
            return len(base)
        return len(base) + len(delta) - sum(map(base.__contains__, delta))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is Store:
            if other._base is self._base:
                changed, dropped = self.diff(other)
                return not changed and not dropped
            other = other._dict()
        elif not isinstance(other, Mapping):
            return NotImplemented
        if len(self) != len(other):
            return False
        return self._dict() == (other if isinstance(other, dict)
                                else dict(other.items()))

    def __repr__(self):
        return f"Store({self._dict()!r})"


EMPTY = Store()


# states and outcomes ---------------------------------------------------------

class ConcreteState(NamedTuple):
    stmt: Stmt
    fp: FramePtr
    store: Mapping[Addr, Value]      # a Store; a plain dict is accepted
    kont: Kont
    time: Time
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


class Halted(NamedTuple):
    value: Value
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


class Uncaught(NamedTuple):
    value: Value
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


class Stuck(NamedTuple):
    state: ConcreteState
    reason: str
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


class FuelExhausted(NamedTuple):
    state: ConcreteState
    __eq__, __ne__, __hash__ = _typed_eq, _typed_ne, tuple.__hash__


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
    return type(st.kont) is Halt and type(st.stmt) in (Return, Throw)


def _lookup(sigma: Mapping, fp: FramePtr, var: str) -> Value:
    v = sigma.get(Addr(var, fp))
    if v is None:
        raise StuckError(f"unbound variable {var!r}")
    return v


def _succ(lp: LabeledProgram, s: Stmt) -> Stmt:
    nxt = lp.succ_map.get(s.label)
    if nxt is None:
        raise StuckError(f"no successor for label {s.label}")
    return nxt


def constructor_inits(lp: LabeledProgram, class_name: str, args):
    """The field initialisations of class_name's constructor chain, as
    (field, argument) pairs, root class first: each constructor binds
    its parameters to its arguments positionally, its super call
    forwards the arguments it names, and each this.f = x init gives f
    the argument bound to x. The walk is iterative, so a chain of any
    depth fits in the interpreter's stack."""
    levels = []
    cname, argv = class_name, args
    while cname != OBJECT:
        _, konst = lp.class_lookup(cname)
        env = {name: val for (_, name), val in zip(konst.params, argv)}
        levels.append((konst.inits, env))
        cname = lp.classes[cname].parent
        argv = [env[a] for a in konst.super_args]
    for inits, env in reversed(levels):
        for fname, pname in inits:
            yield fname, env[pname]


def step(lp: LabeledProgram, st: ConcreteState) -> ConcreteState:
    """One transition. Raises StuckError when no rule applies and
    ValueError on terminal states."""
    if is_terminal(st):
        raise ValueError("step on terminal state")
    return _step(lp, st)


def _step(lp: LabeledProgram, st: ConcreteState) -> ConcreteState:
    """The transition from a state that is not terminal."""
    s, fp, sigma, kont, t = st
    if not isinstance(sigma, Store):
        sigma = Store(sigma)
    kind = type(s)

    if kind is Assign:
        e = s.exp
        ekind = type(e)
        if ekind is VarRef or ekind is Cast:
            # a cast moves the value unchanged; the named class is not consulted
            d = _lookup(sigma, fp, e.var)
            return ConcreteState(_succ(lp, s), fp,
                                 sigma.set({Addr(s.var, fp): d}), kont, t)
        if ekind is FieldRef:
            d = _lookup(sigma, fp, e.var)
            fv = sigma.get(Addr(e.field, d.op))
            if fv is None:
                raise StuckError(f"unbound field {e.field!r} on {d.class_name}")
            return ConcreteState(_succ(lp, s), fp,
                                 sigma.set({Addr(s.var, fp): fv}), kont, t)
        if ekind is Invoke:
            d0 = _lookup(sigma, fp, e.receiver)
            method = lp.method_lookup(d0.class_name, e.method)
            if method is None:
                raise StuckError(f"no method {e.method!r} on class {d0.class_name!r}")
            argv = [_lookup(sigma, fp, a) for a in e.args]
            t2 = tick(s.label, t)
            fp2 = FramePtr(s.label, t2)
            frame = {Addr(THIS, fp2): d0}
            for (_, pname), val in zip(method.params, argv):
                frame[Addr(pname, fp2)] = val
            kont2 = Fun(s.var, _succ(lp, s), fp, kont)
            return ConcreteState(lp.first_stmt(method), fp2, sigma.set(frame),
                                 kont2, t2)
        if ekind is New:
            argv = [_lookup(sigma, fp, a) for a in e.args]
            op = ObjPtr(s.label, t)
            delta = {Addr(fname, op): val for fname, val
                     in constructor_inits(lp, e.class_name, argv)}
            delta[Addr(s.var, fp)] = Value(e.class_name, op)
            return ConcreteState(_succ(lp, s), fp, sigma.set(delta), kont, t)
        raise StuckError(f"unknown expression {e!r}")

    if kind is TryCatch:
        kont2 = Handle(s.catch_class, s.catch_var, s.handler[0], fp, kont)
        return ConcreteState(_succ(lp, s), fp, sigma, kont2, t)

    if kind is Return:
        d = _lookup(sigma, fp, s.var)
        if type(kont) is Fun:
            return ConcreteState(kont.target, kont.fp,
                                 sigma.set({Addr(kont.var, kont.fp): d}),
                                 kont.next, _popped(t))
        # a handler frame: not terminal, so not the halt continuation
        return ConcreteState(s, fp, sigma, kont.next, t)

    if kind is Throw:
        d = _lookup(sigma, fp, s.var)
        if type(kont) is Handle:
            if lp.subtype(d.class_name, kont.class_name):
                return ConcreteState(kont.target, kont.fp,
                                     sigma.set({Addr(kont.var, kont.fp): d}),
                                     kont.next, t)
            return ConcreteState(s, fp, sigma, kont.next, t)
        # a call frame, unwound
        return ConcreteState(s, fp, sigma, kont.next, _popped(t))

    if kind is PopHandler:
        if type(kont) is Handle:
            return ConcreteState(_succ(lp, s), fp, sigma, kont.next, t)
        raise StuckError("pophandler without a handler frame on top")

    raise StuckError(f"unknown statement {kind.__name__}")


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
            st = _step(lp, st)
        except StuckError as err:
            return Stuck(st, err.reason), trace
        trace.append(st)
    s = st.stmt
    try:
        d = _lookup(st.store, st.fp, s.var)
    except StuckError as err:
        return Stuck(st, err.reason), trace
    if type(s) is Return:
        return Halted(d), trace
    return Uncaught(d), trace
