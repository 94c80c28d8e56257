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

All edges are epsilon. Everything else (stores, weak updates, context
policy, gc) matches the pushdown engine, including its worklist, which
steps the queued node discovered first. DSG.stats["step_causes"] says
why each step was scheduled: a new node, store growth or growth of a
table level the node consulted. As there, diagnostics are those of
each node's last step, which saw its final store and table levels, so
no output depends on the step order.
"""

from __future__ import annotations

import time as _time

from .domain import (
    BOTTOM, CallFrame, ControlState, EPSILON, HandlerFrame, Policy,
    Push, fp_key, frame_key, inject_abstract, next as abstract_next,
    store_join, tick,
)
from .engine import (
    DSG, BudgetExceeded, Worklist, fixpoint_diagnostics, record_diagnostics,
)
from .gc import eagc
from .machine import Addr
from .syntax import LabeledProgram, PopHandler, Return, Stmt, Throw

STEP_CAUSES = ("new_node", "store", "table")


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


class _FiniteEngine:
    def __init__(self, lp: LabeledProgram, policy: Policy, budget):
        self.lp = lp
        self.policy = policy
        self.budget = budget
        q0 = inject_abstract(lp)
        self.dsg = DSG(lp=lp, policy=policy, initial=q0)
        self.dsg.nodes.add(q0)
        self.dsg.node_stores[q0] = {}
        self.table: dict = {_level(lp, q0.stmt, q0.fp): {BOTTOM}}
        self.table_deps: dict = {}     # level -> nodes that consulted it
        self.work = Worklist(STEP_CAUSES)
        self.work.push(q0)
        self.node_diags: dict = {}     # node -> diagnostics of its last step
        self.t0 = _time.monotonic()

    # -- bookkeeping ----------------------------------------------------

    def elapsed(self):
        return _time.monotonic() - self.t0

    def full_store_of(self, s):
        if self.policy.store_mode == "global":
            return self.dsg.global_store
        return self.dsg.full_stores.get(s, {})

    def join_store(self, s, sigma2):
        if self.policy.store_mode == "global":
            joined = store_join(self.dsg.global_store, sigma2)
            if joined is not self.dsg.global_store:
                self.dsg.global_store = joined
                for n in self.dsg.nodes:
                    self.work.push(n, "store")
            return
        old = self.dsg.full_stores.get(s, {})
        joined = store_join(old, sigma2)
        if joined is not old:
            self.dsg.full_stores[s] = joined
            if not self.policy.gc:
                self.dsg.node_stores[s] = joined
            self.work.push(s, "store")

    def add_node(self, s):
        if s in self.dsg.nodes:
            return
        if len(self.dsg.nodes) >= self.budget.max_nodes:
            raise BudgetExceeded("nodes", len(self.dsg.nodes),
                                 len(self.dsg.edges), self.elapsed())
        self.dsg.nodes.add(s)
        if self.policy.store_mode != "global":
            self.dsg.node_stores.setdefault(s, {})
            self.dsg.full_stores.setdefault(s, {})
        self.work.push(s, "new_node")

    def add_edge(self, s1, s2):
        edge = (s1, EPSILON, s2)
        if edge in self.dsg.edges:
            return
        if len(self.dsg.edges) >= self.budget.max_edges:
            raise BudgetExceeded("edges", len(self.dsg.nodes),
                                 len(self.dsg.edges), self.elapsed())
        self.dsg.edges.add(edge)

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

    # -- main loop --------------------------------------------------------

    def run(self):
        lp, policy = self.lp, self.policy
        steps = 0
        while self.work:
            if self.elapsed() > self.budget.max_seconds:
                raise BudgetExceeded("time", len(self.dsg.nodes),
                                     len(self.dsg.edges), self.elapsed())
            q = self.work.pop()
            steps += 1
            sigma = self.full_store_of(q)
            if policy.gc:
                sigma = eagc(q, sigma, self.gc_frames(q), lp, policy)
                if policy.store_mode != "global":
                    self.dsg.node_stores[q] = sigma
            diags: list = []
            self.step_node(q, sigma, diags)
            record_diagnostics(self.node_diags, q, diags)
        self.dsg.diagnostics = fixpoint_diagnostics(self.node_diags)
        self.dsg.stats = {
            "steps": steps,
            "nodes": len(self.dsg.nodes),
            "edges": len(self.dsg.edges),
            "seconds": self.elapsed(),
            "step_causes": dict(self.work.causes),
        }
        if policy.store_mode == "global":
            for n in self.dsg.nodes:
                self.dsg.node_stores[n] = self.dsg.global_store
        return self.dsg

    def step_node(self, q, sigma, diags):
        """Emit q's successors; (state, reason) diagnostics go to diags."""
        lp, policy = self.lp, self.policy
        s = q.stmt
        level = _level(lp, s, q.fp)
        t2 = tick(s.label, q.time, policy)

        if isinstance(s, Return):
            vals = sigma.get(Addr(s.var, q.fp))
            if not vals:
                diags.append((q, f"unbound read of {s.var!r}"))
                return
            for e in sorted(self.consult(level, q), key=_entry_key):
                if isinstance(e, CallFrame):
                    sg2 = store_join(sigma, {Addr(e.var, e.fp): frozenset(vals)})
                    q2 = ControlState(e.target, e.fp, t2)
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
                        q2 = ControlState(h.target, h.fp, t2)
                        self.emit(q, q2, sg2)
            return

        if isinstance(s, PopHandler):
            nxt = lp.succ_map.get(s.label)
            if nxt is not None:    # the record stays: no table change
                self.emit(q, ControlState(nxt, q.fp, t2), sigma)
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
        self.add_edge(q, q2)


def analyze_finite(lp: LabeledProgram, policy: Policy, budget) -> DSG:
    return _FiniteEngine(lp, policy, budget).run()
