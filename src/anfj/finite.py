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
"""

from __future__ import annotations

from .domain import (
    BOTTOM, CallFrame, ControlState, EPSILON, HandlerFrame, Push, fp_key,
    frame_key, next as abstract_next, store_join,
)
from .engine import _Engine
from .gc import eagc
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
    causes = ("table",)

    def __init__(self, lp, policy, budget):
        super().__init__(lp, policy, budget)
        q0 = self.dsg.initial
        self.table: dict = {_level(lp, q0.stmt, q0.fp): {BOTTOM}}
        self.table_deps: dict = {}     # level -> nodes that consulted it

    def record(self, level, entry):
        """Table write; growth wakes every node that ever read the level
        (collected views recompute from the full stores on re-step)."""
        have = self.table.setdefault(level, set())
        if entry in have:
            return
        have.add(entry)
        for n in self.table_deps.get(level, ()):
            self.work.push(n, "table")

    def consult(self, level, node):
        self.table_deps.setdefault(level, set()).add(node)
        return self.table.get(level, set())

    # -- level walks ------------------------------------------------------

    def reachable_levels(self, level, node):
        """level plus every level reachable through call records; each
        consulted level registers node as a dependent."""
        seen = {level}
        stack = [level]
        while stack:
            cur = stack.pop()
            for e in self.consult(cur, node):
                if isinstance(e, CallFrame):
                    nxt = _level(self.lp, e.target, e.fp)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return seen

    def gc_frames(self, q):
        """Stand-in for the pushdown engine's stack summary: every call
        record at any level the current activation can return through."""
        frames = set()
        for lv in self.reachable_levels(_level(self.lp, q.stmt, q.fp), q):
            for e in self.table.get(lv, ()):
                if isinstance(e, CallFrame):
                    frames.add(e)
        return frames

    def collect(self, q, sigma):
        return eagc(q, sigma, self.gc_frames(q), self.lp, self.policy)

    def step_node(self, q, sigma, diags):
        """Emit q's successors; (state, reason) diagnostics go to diags."""
        lp, policy = self.lp, self.policy
        s = q.stmt
        level = _level(lp, s, q.fp)

        if isinstance(s, Return):
            vals = sigma.get(Addr(s.var, q.fp))
            if not vals:
                diags.append((q, f"unbound read of {s.var!r}"))
                return
            for e in sorted(self.consult(level, q), key=_entry_key):
                if isinstance(e, CallFrame):
                    sg2 = store_join(sigma, {Addr(e.var, e.fp): frozenset(vals)})
                    q2 = ControlState(e.target, e.fp, q.time)
                    self.emit(q, q2, sg2)
            return

        if isinstance(s, Throw):
            vals = sigma.get(Addr(s.var, q.fp))
            if not vals:
                diags.append((q, f"unbound read of {s.var!r}"))
                return
            handlers = []
            for lv in sorted(self.reachable_levels(level, q), key=_level_key):
                for e in self.table.get(lv, ()):
                    if isinstance(e, HandlerFrame):
                        handlers.append(e)
            handlers.sort(key=frame_key)
            for v in sorted(vals, key=lambda v: v.class_name):
                for h in handlers:
                    if lp.subtype(v.class_name, h.class_name):
                        sg2 = store_join(
                            sigma, {Addr(h.var, h.fp): frozenset((v,))})
                        q2 = ControlState(h.target, h.fp, q.time)
                        self.emit(q, q2, sg2)
            return

        if isinstance(s, PopHandler):
            nxt = lp.succ_map.get(s.label)
            if nxt is not None:    # the record stays: no table change
                self.emit(q, ControlState(nxt, q.fp, q.time), sigma)
            return

        # value rules are shared with the pushdown engine; pushes are
        # flattened into table records plus epsilon edges
        for q2, act, sg2 in abstract_next(lp, q, sigma, None, policy, diags):
            if isinstance(act, Push):
                frame = act.frame
                if isinstance(frame, CallFrame):
                    self.record(_level(lp, q2.stmt, q2.fp), frame)
                else:
                    self.record(level, frame)
            self.emit(q, q2, sg2)

    def emit(self, q, q2, sg2):
        self.add_node(q2)
        self.join_store(q2, sg2)
        self.add_edge(q, EPSILON, q2)
