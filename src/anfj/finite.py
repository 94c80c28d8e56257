"""Finite-state baseline: the same value rules with the stack abstracted
away.

Instead of tracking frames, every call and every armed handler is
recorded in a global table keyed by activation level: the (method,
frame pointer) pair of the activation that owns it. Records never go
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

The stack roots of a node's collection are the call records at every
level its activation can return through. A new record at a level a
step consulted is a new context, stepped in full; a new call record
at a level a collection consulted brings its new root pointers. Time
is the pushdown engine's own: only calls tick it. So the two analyses
differ in stack handling alone.
"""

from __future__ import annotations

# eagc, abstract_next and store_join stay importable here because the
# traced benchmark (perfbench/layers.py) wraps them in this module too
from .domain import (
    BOTTOM, CallFrame, EPSILON, Push, frame_key, next as abstract_next,
    store_join,
)
from .engine import _Engine
from .gc import eagc
from .syntax import LabeledProgram, PopHandler, Return, Stmt, Throw


def _level(lp: LabeledProgram, stmt: Stmt, fp):
    m = lp.method_of_label(stmt.label)
    return ((m.owner, m.name), fp)


class _FiniteEngine(_Engine):
    """The finite stack abstraction. Who consulted a table level is
    kept by purpose: a node whose contexts came from the level is
    stepped again when it grows, and a node whose collection took its
    call records is handed the new ones' root pointers. A handler
    record owns no bindings, so it wakes no collection, as a handler
    frame owns no root in the pushdown engine."""

    causes = ("table",)

    def __init__(self, lp, policy, budget):
        super().__init__(lp, policy, budget)
        q0 = self.dsg.initial
        self.table: dict = {_level(lp, q0.stmt, q0.fp): {BOTTOM}}
        self.step_deps: dict = {}      # level -> nodes whose contexts read it
        self.gc_deps: dict = {}        # level -> nodes whose gc read it

    def record(self, level, entry):
        """Table write; growth wakes every node whose contexts came
        from the level, and a call record every node whose collection
        did, with the root pointers it brings."""
        have = self.table.setdefault(level, set())
        if entry in have:
            return
        have.add(entry)
        for n in self.step_deps.get(level, ()):
            self.work.push(n, "table")
        if isinstance(entry, CallFrame):
            for n in self.gc_deps.get(level, ()):
                fps = {entry.fp}
                self.reach(n, _level(self.lp, entry.target, entry.fp), fps)
                self.add_roots(n, fps, "table")

    # -- level walks ------------------------------------------------------

    def reachable_levels(self, level):
        """level plus every level reachable through call records."""
        seen = {level}
        stack = [level]
        while stack:
            for e in self.table.get(stack.pop(), ()):
                if isinstance(e, CallFrame):
                    nxt = _level(self.lp, e.target, e.fp)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return seen

    def reach(self, node, level, fps) -> None:
        """Extend node's collection to level and every level reachable
        from it that the collection has not consulted yet, registering
        node on each and adding the pointers of the call records there
        to fps."""
        stack = [level]
        while stack:
            cur = stack.pop()
            deps = self.gc_deps.setdefault(cur, set())
            if node in deps:
                continue
            deps.add(node)
            for e in self.table.get(cur, ()):
                if isinstance(e, CallFrame):
                    fps.add(e.fp)
                    stack.append(_level(self.lp, e.target, e.fp))

    # -- the core's hooks ---------------------------------------------------

    def stack_fps(self, q):
        """The stand-in for the pushdown engine's stack summary: the
        call records at every level q's activation can return through."""
        fps: set = set()
        self.reach(q, _level(self.lp, q.stmt, q.fp), fps)
        return fps

    def contexts(self, q):
        s = q.stmt
        if not isinstance(s, (Return, Throw, PopHandler)):
            return (None,)
        levels = [_level(self.lp, s, q.fp)]
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
                self.record(_level(self.lp, owner.stmt, owner.fp), act.frame)
            elif q2 == q and sg2 is sigma:
                continue
            yield q2, EPSILON, sg2
