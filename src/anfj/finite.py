"""Finite-state baseline: the same value rules with the stack abstracted
away.

Instead of tracking frames, every call and every armed handler is
recorded in a global table keyed by activation level: the (method,
frame pointer) pair of the activation that owns it. A return consults
its own level's call records and flows to every recorded caller. A
throw walks levels transitively through call records and flows to every
matching handler record it can reach. Records never go away - there is
no popping - so a handler stays visible to the rest of its method after
its try completes, and to every callee forever. That conflation is the
point of the baseline: it is what a pushdown stack removes.

This module is only that stack abstraction on the engine's fixpoint
core (engine._Engine): the table, its step rules, and the collection
whose stack roots are the call records. The worklist, stores, budgets,
diagnostics and stats are the pushdown engine's own, and so is time:
only calls tick it, and a return, throw or handler pop keeps the time
of the state it leaves, as its pushdown counterpart does. So the two
analyses differ in stack handling alone. All edges are epsilon; a step
after growth of a table level the node consulted has the cause "table".
Such a step is a full one only when the node's own step rule (a return
or throw) consulted the level; growth seen by its collection alone
extends the collection, and the core's delta pass does the rest.
"""

from __future__ import annotations

from .domain import (
    BOTTOM, CallFrame, ControlState, EPSILON, HandlerFrame, Push, fp_key,
    frame_key, next as abstract_next, store_join,
)
from .engine import _Engine
from .gc import call_fps, eagc
from .machine import Addr
from .syntax import LabeledProgram, PopHandler, Return, Stmt, Throw


def _level(lp: LabeledProgram, stmt: Stmt, fp):
    m = lp.method_of_label(stmt.label)
    return ((m.owner, m.name), fp)


def _entry_key(e):
    if e is BOTTOM:
        return (0, frame_key(BOTTOM))
    return (1, frame_key(e))


def _level_key(level):
    (owner, name), fp = level
    return (owner, name, fp_key(fp))


class _FiniteEngine(_Engine):
    """The finite stack abstraction. A node has one context, None: the
    table stands in for every stack. Who consulted a table level is
    kept by purpose. A node whose step consulted a grown level is
    stale and steps in full. A node's collection consults every level
    its activation can return through, and its stack roots are the
    call records there; a new call record at one of those levels is
    passed on to the node's next collection, as new roots. A handler
    record owns no bindings, so it wakes no collection, as handler
    frames new in a stack summary wake none in the pushdown engine."""

    causes = ("table",)

    def __init__(self, lp, policy, budget):
        super().__init__(lp, policy, budget)
        q0 = self.dsg.initial
        self.table: dict = {_level(lp, q0.stmt, q0.fp): {BOTTOM}}
        self.step_deps: dict = {}      # level -> nodes whose step read it
        self.gc_deps: dict = {}        # level -> nodes whose gc read it
        self.new_roots: dict = {}      # node -> call records new to its gc

    def record(self, level, entry):
        """Table write; growth wakes every node whose step read the
        level, and a call record every node whose collection did."""
        have = self.table.setdefault(level, set())
        if entry in have:
            return
        have.add(entry)
        for n in self.step_deps.get(level, ()):
            self.stepped[n].stale = True
            self.work.push(n, "table")
        if isinstance(entry, CallFrame):
            for n in self.gc_deps.get(level, ()):
                frames = self.new_roots.setdefault(n, set())
                frames.add(entry)
                self.reach(n, _level(self.lp, entry.target, entry.fp), frames)
                self.work.push(n, "table")

    # -- level walks ------------------------------------------------------

    def reachable_levels(self, level, node):
        """level plus every level reachable through call records; each
        one registers node as a dependent of its step."""
        seen = {level}
        stack = [level]
        while stack:
            cur = stack.pop()
            self.step_deps.setdefault(cur, set()).add(node)
            for e in self.table.get(cur, ()):
                if isinstance(e, CallFrame):
                    nxt = _level(self.lp, e.target, e.fp)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return seen

    def reach(self, node, level, frames) -> None:
        """Extend node's collection to level and every level reachable
        from it that the collection has not consulted yet, registering
        node on each and adding the call records there to frames."""
        stack = [level]
        while stack:
            cur = stack.pop()
            deps = self.gc_deps.setdefault(cur, set())
            if node in deps:
                continue
            deps.add(node)
            for e in self.table.get(cur, ()):
                if isinstance(e, CallFrame):
                    frames.add(e)
                    stack.append(_level(self.lp, e.target, e.fp))

    def collect(self, q, sigma, state):
        """The first collection: the stand-in for the pushdown engine's
        stack summary is every call record at any level the current
        activation can return through."""
        frames: set = set()
        self.reach(q, _level(self.lp, q.stmt, q.fp), frames)
        return eagc(q, sigma, frames, self.lp, self.policy, state=state)

    def stack_fps(self, q):
        return call_fps(self.new_roots.pop(q, ()))

    def contexts(self, q):
        return (None,)

    def step(self, q, ctx, sigma, reads, diags):
        """q's successors, all over epsilon edges; a return or throw
        adds the address of its variable to reads."""
        lp, policy = self.lp, self.policy
        s = q.stmt
        level = _level(lp, s, q.fp)

        if isinstance(s, Return):
            addr = Addr(s.var, q.fp)
            reads.add(addr)
            vals = sigma.get(addr)
            if not vals:
                diags.append((q, f"unbound read of {s.var!r}"))
                return
            self.step_deps.setdefault(level, set()).add(q)
            for e in sorted(self.table.get(level, ()), key=_entry_key):
                if isinstance(e, CallFrame):
                    sg2 = store_join(sigma, {Addr(e.var, e.fp): frozenset(vals)})
                    yield ControlState(e.target, e.fp, q.time), EPSILON, sg2
            return

        if isinstance(s, Throw):
            addr = Addr(s.var, q.fp)
            reads.add(addr)
            vals = sigma.get(addr)
            if not vals:
                diags.append((q, f"unbound read of {s.var!r}"))
                return
            handlers = []
            levels = self.reachable_levels(level, q)
            for lv in sorted(levels, key=_level_key):
                for e in self.table.get(lv, ()):
                    if isinstance(e, HandlerFrame):
                        handlers.append(e)
            handlers.sort(key=frame_key)
            for v in sorted(vals, key=lambda v: v.class_name):
                for h in handlers:
                    if lp.subtype(v.class_name, h.class_name):
                        sg2 = store_join(
                            sigma, {Addr(h.var, h.fp): frozenset((v,))})
                        yield ControlState(h.target, h.fp, q.time), EPSILON, sg2
            return

        if isinstance(s, PopHandler):
            nxt = lp.succ_map.get(s.label)
            if nxt is not None:    # the record stays: no table change
                yield ControlState(nxt, q.fp, q.time), EPSILON, sigma
            return

        # value rules are shared with the pushdown engine; pushes are
        # flattened into table records plus epsilon edges
        for q2, act, sg2 in abstract_next(lp, q, sigma, None, policy, diags,
                                          reads):
            if isinstance(act, Push):
                frame = act.frame
                if isinstance(frame, CallFrame):
                    self.record(_level(lp, q2.stmt, q2.fp), frame)
                else:
                    self.record(level, frame)
            yield q2, EPSILON, sg2
