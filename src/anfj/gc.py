"""Abstract garbage collection over per-node stores, kept incrementally.

Collection runs when the engine dequeues a node, before stepping it. The
roots are the node's own live locals plus every binding on a root
pointer of its stack: the frame pointer of a call frame that may sit on
it (handler frames and the empty stack own nothing, so a stack
abstraction reports only those pointers). The store's object graph is
closed transitively, and unreachable addresses are dropped. Liveness
pruning restricts the locals to the current statement's live set;
either flag can be switched off independently.

A node's keep-set can only grow: its live set is fixed by its label,
its stack only gains root pointers and its full store only gains
bindings. So the engine keeps one Collection per node. The first
collection is eagc, which is an extension of an empty Collection; every
later one extends the keep-set from the root pointers new on the stack
and the addresses that grew in the full store since the last one, and
reports the visible delta, the addresses whose binding in the collected
view changed.
"""

from __future__ import annotations

from .domain import ControlState, Policy
from .syntax import THIS, LabeledProgram


class Collection:
    """One node's collection, kept between its steps.

    The keep-set holds whole pointers (ptrs: the stack's call-frame
    pointers, every object reached from a kept value, and the node's
    own frame pointer when liveness pruning is off), whose present and
    future addresses are all kept, plus the node's own locals named in
    live. pending indexes, by pointer, the addresses of the last
    collected store that are not kept, so reaching a pointer later
    finds them without a pass over the store."""

    __slots__ = ("fp", "live", "sigma", "visible", "keep", "ptrs", "pending")

    def __init__(self, q: ControlState, lp: LabeledProgram, policy: Policy):
        self.fp = q.fp
        self.live: frozenset = frozenset()
        self.ptrs: set = set()
        if policy.liveness:
            # the receiver is always a root while its activation runs:
            # it is the activation's identity, and the allocation policy
            # may need it even in methods whose source never mentions it
            self.live = lp.lives.get(q.stmt.label, frozenset()) | {THIS}
        else:
            self.ptrs.add(q.fp)
        self.sigma: dict = {}          # the full store last collected
        self.visible: dict = {}        # sigma restricted to keep
        self.keep: set = set()
        self.pending: dict = {}        # pointer -> its unkept addresses

    def extend(self, sigma: dict, grown, fps) -> list:
        """Collect sigma, a store above the one collected last, in which
        grown holds every address whose value set changed since then
        (new ones included), under a stack whose root pointers are the
        last one's plus fps (which may repeat old ones). Returns the
        visible delta: the addresses newly kept plus the kept ones that
        grew, each once."""
        keep, ptrs, pending, old = self.keep, self.ptrs, self.pending, self.sigma
        fp, live = self.fp, self.live
        delta = []
        for a in grown:
            if a in keep:
                delta.append(a)
            elif a not in old:
                if a.ptr in ptrs or (a.base in live and a.ptr == fp):
                    keep.add(a)
                    delta.append(a)
                else:
                    pending.setdefault(a.ptr, []).append(a)
        for fp in fps:
            if fp not in ptrs:
                ptrs.add(fp)
                for a in pending.pop(fp, ()):
                    keep.add(a)
                    delta.append(a)
        frontier = list(delta)
        while frontier:
            for val in sigma[frontier.pop()]:
                op = val.op
                if op not in ptrs:
                    ptrs.add(op)
                    for a in pending.pop(op, ()):
                        keep.add(a)
                        delta.append(a)
                        frontier.append(a)
        self.sigma = sigma
        if len(keep) == len(sigma):
            self.visible = sigma
        elif delta:
            visible = dict(self.visible)
            for a in delta:
                visible[a] = sigma[a]
            self.visible = visible
        return delta


def eagc(q: ControlState, sigma: dict, fps, lp: LabeledProgram,
         policy: Policy, state: Collection | None = None) -> dict:
    """sigma restricted to what q can still touch under a stack whose
    root pointers are fps; identity when off or when everything is
    kept. state, a fresh Collection of q, keeps the collection for
    later extension."""
    if not policy.gc:
        return sigma
    if state is None:
        state = Collection(q, lp, policy)
    state.extend(sigma, sigma, fps)
    return state.visible
