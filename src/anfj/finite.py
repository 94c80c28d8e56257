"""Finite-state baseline: the same value rules with the stack abstracted
away.

Instead of tracking frames, every call and every armed handler is
recorded in a global table keyed by activation level: the (method,
frame pointer) key of the activation that owns it, as the core's
root graph keys its sets (engine.activation). Records never go
away - there is no popping - so a handler stays visible to the rest of
its method after its try completes, and to every callee forever. That
conflation is the point of the baseline: it is what a pushdown stack
removes.

This module is only that stack abstraction on the engine's fixpoint
core (engine._Engine), and it steps with domain.next's rules, as the
pushdown engine does. The table supplies the top frames a statement
that reads the stack is stepped under: for a return or a handler pop,
every record at its own level; for a throw, every record at a level it
can reach through call records. Any other statement needs no top frame.
A push becomes a table record (a call's at the callee's level, a
handler's at its own), and every edge is epsilon. A pop that only
exposes the frame beneath - a return over a handler record, a throw
over a call record or past a handler it does not match - is domain.next's
self-edge that adds no binding; it is dropped, as the table has no
frame beneath. Self-edges with a new binding stay: a throw caught by
its own handler, or a call whose callee starts with the same call.

The stack roots of a node's collection are the pointers of the call
records at every level its activation can return through: the level's
set in the core's root graph, which every collection at the level
reads by membership. A call record is a call frame pushed onto its
level's stack, so it grows the graph by the core's one rule
(_Engine.pushed), as a pushdown call push does: its frame pointer joins
the level's set, and the stack of the level it returns to goes
beneath. The table keeps no call sites, so none goes beneath. After
each step the core wakes only the collections that left out an address
under a new pointer. A new record at a level a step consulted is a new
context, stepped in full.
Time is the pushdown engine's own: only calls tick it. So the two
analyses differ in stack handling alone.
"""

from __future__ import annotations

# eagc, abstract_next and store_join stay importable here because the
# traced benchmark (perfbench/layers.py) wraps them in this module too
from .domain import (
    BOTTOM, CallFrame, EPSILON, Push, frame_key, next as abstract_next,
    store_join,
)
from .engine import _Engine, activation
from .gc import eagc
from .syntax import PopHandler, Return, Throw


class _FiniteEngine(_Engine):
    """The finite stack abstraction. A node whose contexts came from a
    table level is stepped again when the level grows. Each new record
    is a frame pushed onto its level's stack, handed to the core's
    pushed: under GC a call record grows the root graph as a pushdown
    call push does, and a handler record, which owns no bindings,
    grows nothing."""

    causes = ("table",)
    root_cause = "table"

    def __init__(self, lp, policy, budget):
        super().__init__(lp, policy, budget)
        q0 = self.dsg.initial
        self.table: dict = {activation(lp, q0.stmt, q0.fp): {BOTTOM}}
        self.step_deps: dict = {}      # level -> nodes whose contexts read it

    def record(self, level, entry):
        """Table write; growth wakes every node whose contexts came
        from the level, and a new entry is a frame pushed onto the
        level's stack (the core's pushed, under GC)."""
        have = self.table.setdefault(level, set())
        if entry in have:
            return
        have.add(entry)
        for n in self.step_deps.get(level, ()):
            self.work.push(n, "table")
        if self.roots is not None:
            self.pushed(entry, level)

    # -- level walks ------------------------------------------------------

    def reachable_levels(self, level):
        """level plus every level reachable through call records."""
        seen = {level}
        stack = [level]
        while stack:
            for e in self.table.get(stack.pop(), ()):
                if isinstance(e, CallFrame):
                    nxt = activation(self.lp, e.target, e.fp)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return seen

    # -- the core's hooks ---------------------------------------------------

    def contexts(self, q):
        s = q.stmt
        if not isinstance(s, (Return, Throw, PopHandler)):
            return (None,)
        levels = [activation(self.lp, s, q.fp)]
        if isinstance(s, Throw):
            levels = self.reachable_levels(levels[0])
        tops: set = set()
        for lv in levels:
            self.step_deps.setdefault(lv, set()).add(q)
            tops.update(self.table.get(lv, ()))
        return sorted(tops, key=frame_key)

    def step(self, q, top, sigma, reads, diags):
        """domain.next's successors under top, with the stack
        flattened: pushes are recorded in the table, every edge is
        epsilon, and a pop that only exposes the frame beneath (a
        self-edge carrying sigma itself) is dropped."""
        for q2, act, sg2 in abstract_next(self.lp, q, sigma, top,
                                          self.policy, diags, reads):
            if isinstance(act, Push):
                owner = q2 if isinstance(act.frame, CallFrame) else q
                self.record(activation(self.lp, owner.stmt, owner.fp),
                            act.frame)
            elif q2 == q and sg2 is sigma:
                continue
            yield q2, EPSILON, sg2
