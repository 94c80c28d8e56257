"""Abstract garbage collection over per-node stores.

Collection runs when the engine dequeues a node, before stepping it: the
root set combines the node's own live locals with every binding owned by
a call frame that may sit on the stack (handler frames own nothing), the
store's object graph is closed transitively, and unreachable addresses
are dropped. Liveness pruning restricts the locals to the current
statement's live set; either flag can be switched off independently.
"""

from __future__ import annotations

from .domain import CallFrame, ControlState, Policy
from .syntax import THIS, LabeledProgram


def index_by_ptr(sigma: dict) -> dict:
    """Pointer -> the store's addresses on it (an activation's variables
    or an object's fields). One collection builds this once and derives
    roots and closure from it."""
    by_ptr: dict = {}
    for addr in sigma:
        by_ptr.setdefault(addr.ptr, []).append(addr)
    return by_ptr


def stack_root(frames, sigma: dict, by_ptr: dict | None = None) -> set:
    """Variable addresses owned by any call frame in frames.

    Handler frames (and the empty-stack marker) contribute nothing: a
    handler only names a variable it will bind later."""
    if by_ptr is None:
        by_ptr = index_by_ptr(sigma)
    out = set()
    for fp in {f.fp for f in frames if isinstance(f, CallFrame)}:
        out.update(by_ptr.get(fp, ()))
    return out


def root(q: ControlState, sigma: dict, frames, lp: LabeledProgram,
         policy: Policy, by_ptr: dict | None = None) -> set:
    """Addresses directly referenced at q: the current activation's
    variables (only the live ones when liveness pruning is on) plus the
    stack's call-frame bindings.

    The receiver binding is always a root while its activation runs:
    it is the activation's identity, and the allocation policy may need
    it even in methods whose source never mentions it."""
    if by_ptr is None:
        by_ptr = index_by_ptr(sigma)
    own = by_ptr.get(q.fp, ())
    if policy.liveness:
        live = lp.lives.get(q.stmt.label, frozenset())
        own = [a for a in own if a.base in live or a.base == THIS]
    return stack_root(frames, sigma, by_ptr).union(own)


def reachable(roots: set, sigma: dict, by_ptr: dict | None = None) -> set:
    """Closure of roots under the store's points-to edges: an address
    reaches every field address of every object it may denote."""
    if by_ptr is None:
        by_ptr = index_by_ptr(sigma)
    seen = {a for a in roots if a in sigma}
    frontier = list(seen)
    while frontier:
        addr = frontier.pop()
        for val in sigma[addr]:
            for nxt in by_ptr.get(val.op, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def eagc(q: ControlState, sigma: dict, frames, lp: LabeledProgram,
         policy: Policy) -> dict:
    """sigma restricted to what q can still touch; identity when off or
    when everything is kept."""
    if not policy.gc:
        return sigma
    by_ptr = index_by_ptr(sigma)
    keep = reachable(root(q, sigma, frames, lp, policy, by_ptr), sigma, by_ptr)
    if len(keep) == len(sigma):
        return sigma
    return {a: vals for a, vals in sigma.items() if a in keep}
