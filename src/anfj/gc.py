"""Abstract garbage collection over per-node stores, kept incrementally.

Collection runs when the engine dequeues a node, before stepping it. The
roots are the node's own live locals plus every binding on a root
pointer of its stack, as the stack abstraction reports them: the frame
pointer of each call frame that may sit on it and, for the pushdown
engine, whose stores leave the frames beneath out, the object pointers
those frames' bindings hold. Handler frames and the empty stack own
nothing. A root pointer of either kind is a whole pointer: all of its
present and future addresses are kept. The store's object graph is
closed transitively, and unreachable addresses are dropped. Liveness
pruning restricts the locals to the current statement's live set;
either flag can be switched off independently.

A node's keep-set can only grow: its live set is fixed by its label,
its stack only gains root pointers and its full store only gains
bindings. So the engine keeps one Collection per node. Its stack's root
pointers are one live set per activation in the engine's root graph
(engine.RootGraph), which the stack abstraction grows and every
collection of the activation's nodes reads by membership, without a
copy. The first collection is eagc, which is an
extension of an empty Collection; every later one extends the keep-set
from the addresses that grew in the full store since the last one and
the root pointers that joined the stack under an address it left out,
and reports the visible delta, the addresses whose binding in the
collected view changed.
"""

from __future__ import annotations

from collections.abc import Mapping

from .domain import ControlState, Policy
from .machine import EMPTY, Store
from .syntax import THIS, LabeledProgram


class Collection:
    """One node's collection, kept between its steps.

    The keep-set holds whole pointers, whose present and future
    addresses are all kept: those of stack, the live root set of the
    node's activation in the engine's root graph, which this reads
    without a copy, and ptrs (every object reached from a kept value,
    the stack pointers an extension was handed, and the node's own
    frame pointer when liveness pruning is off); plus the node's own
    locals named in live. pending indexes, by pointer, the addresses of
    the last collected store that are not kept, each with its latest
    value set, so reaching a pointer later finds them without a pass
    over the store, or a lookup in it. Its pointers are never in ptrs,
    nor in stack but for those that joined it since, which the next
    extension is handed; so an address that is neither kept nor pending
    is new. fresh lists the pointers the last extension put in it."""

    __slots__ = ("fp", "live", "visible", "keep", "ptrs", "stack", "pending",
                 "fresh")

    def __init__(self, q: ControlState, lp: LabeledProgram, policy: Policy):
        self.fp = q.fp
        self.live: frozenset = frozenset()
        self.ptrs: set = set()
        self.stack = frozenset()       # eagc sets the activation's root set
        if policy.liveness:
            # the receiver is always a root while its activation runs:
            # it is the activation's identity, and the allocation policy
            # may need it even in methods whose source never mentions it
            self.live = lp.lives.get(q.stmt.label, frozenset()) | {THIS}
        else:
            self.ptrs.add(q.fp)
        self.visible: Mapping = EMPTY  # the store collected last, restricted
                                       # to keep
        self.keep: set = set()
        self.pending: dict = {}        # pointer -> {unkept address: its
                                       # value set}
        self.fresh: list = []

    def extend(self, sigma: Mapping, grown: Mapping, fps) -> dict:
        """Collect sigma, a store above the one collected last, in which
        grown maps every address whose value set changed since then
        (new ones included) to its value set, under a stack whose root
        pointers are the last one's plus fps (which may repeat old ones).
        Returns the visible delta: the addresses newly kept plus the kept
        ones that grew, each with its value set, in the order kept."""
        keep, ptrs, stack, pending = (self.keep, self.ptrs, self.stack,
                                      self.pending)
        live, own = self.live, {self.fp}   # a set: hashing skips most __eq__
        delta = {}
        fresh = self.fresh = []
        for p in fps:                  # before grown, whose value sets win
            if p not in ptrs:
                ptrs.add(p)
                found = pending.pop(p, None)
                if found:
                    keep.update(found)
                    delta.update(found)
        for layer in Store.layers(grown):  # a later layer's value sets win
            for a, vals in layer.items():
                if a in keep:
                    delta[a] = vals
                elif (a.ptr in ptrs or a.ptr in stack
                      or (a.base in live and a.ptr in own)):
                    keep.add(a)
                    delta[a] = vals
                else:                  # new, or pending already
                    at = pending.get(a.ptr)
                    if at is None:
                        at = pending[a.ptr] = {}
                        fresh.append(a.ptr)
                    at[a] = vals
        frontier = list(delta.values())
        while frontier:
            for val in frontier.pop():
                op = val.op
                if op not in ptrs:
                    ptrs.add(op)
                    found = pending.pop(op, None)
                    if found:
                        keep.update(found)
                        delta.update(found)
                        frontier += found.values()
        if not pending:                # every address is kept
            self.visible = sigma
        elif delta:
            self.visible = Store.of(self.visible).set(delta)
        return delta


def eagc(q: ControlState, sigma: Mapping, fps, lp: LabeledProgram,
         policy: Policy, state: Collection | None = None) -> Mapping:
    """sigma restricted to what q can still touch under a stack whose
    root pointers are fps; identity when off or when everything is
    kept. state, a fresh Collection of q, keeps the collection for
    later extension, and reads fps, a live set, as it grows."""
    if not policy.gc:
        return sigma
    if state is None:
        state = Collection(q, lp, policy)
    state.stack = fps
    state.extend(sigma, sigma, ())
    return state.visible
