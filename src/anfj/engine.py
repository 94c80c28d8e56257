"""Dyck state graph synthesis, on the fixpoint core both analyses share.

The core (_Engine) owns the worklist, the full and visible stores, the
nodes and edges, the budgets and clock, the collection before each
step, the memo of each step and the delta passes it allows, the
fixpoint diagnostics and DSG.stats. A stack abstraction supplies the
same two things to it: the top frames a node is stepped under, and the
GC-root pointers of its stack. _PushdownEngine below is the pushdown
abstraction; finite._FiniteEngine is the finite-state baseline, which
differs from it in stack handling alone.

The pushdown analysis explores abstract control states, but the
stack is never materialized: each node carries a set of possible top
frames (TF), and balanced push/pop paths are collapsed into summary
epsilon edges as they are discovered (Earl et al.'s epsilon-closure
graph). The bookkeeping lives in four maps:

  eps_next              each node's direct epsilon successors
  top_frames (TF)       every frame observed on top of the stack at a node
  psf                   the frame pointers of every call frame possibly
                        anywhere on the stack: the node's GC roots
  pfp                   (node, frame) -> push sources: who pushed that
                        frame onto a balanced path reaching the node

A pop edge (s1, pop g, s2) turns each push source w in pfp[(s1, g)] into
a summary edge (w, eps, s2): the push and the pop cancel, so anything
that held before the push holds after the pop. Summaries feed the same
closure, so deeper cancellations cascade.

A top frame or push source new at a node is passed along its direct
epsilon edges, and on from each node where it is new (semi-naive), so
TF(p) <= TF(n) and pfp(p, f) <= pfp(n, f) for every epsilon edge
(p, n), and a new epsilon edge need read them at its source only.

The stack summary (PSF) keeps pointers, not frames, because its one
reader is the collection, whose stack roots are the bindings of the
call frames' activations (the root set of Might & Shivers' Gamma-CFA);
handler frames and the empty-stack marker own no bindings and never
enter it. It flows along push and epsilon edges, one dependency per
edge, and grows by deltas: when a node gains a predecessor it takes
the predecessor's whole PSF once, and from then on drain passes it only
the pointers that are new at the predecessor (the dirty_psf records),
never re-unioning every predecessor's summary.

Per-node stores come in two layers. The full store is the monotone join
of everything ever flowed into the node; growth of it or of TF
re-enqueues the node, and monotonicity is what makes the fixpoint
terminate even though the graph has cycles. The visible store is the
garbage-collected view of the full store; it is what stepping, export,
and metrics see. With gc off the two layers are the same object.

A re-enqueue is not a re-step. At each dequeue the core extends the
node's collection (gc.Collection) from the addresses that grew in its
full store and the root pointers new on its stack, which gives the
visible delta: the addresses whose visible binding changed. A new root
pointer is kept for the node's next collection, and wakes the node only
when its last collection left out an address under it; otherwise the
visible store would not change. A node is stepped per context (here,
per top frame), and each context's last full step is memoized with the
addresses domain.next read. The context is stepped in full again only
when it is new or the delta touches one of those reads; otherwise the
delta is joined into the full stores of the memoized successors, which
is exactly what the step would add.

The core's worklist (Worklist) steps the queued node that was
discovered first. Upstream nodes are mostly found first, so a node is
re-stepped once its feeders have settled rather than once per growth
of each. The fixpoint, and so every output, does
not depend on this order; only the step count does.

DSG.stats counts steps (dequeues) and, under "step_causes", why each
was scheduled: a new node, store growth, TF growth or GC-root growth.
The initial node is scheduled by none of them, so steps = 1 + the sum.
Each step visits every context of its node once, by a full step
("full_steps") or by a delta pass ("delta_passes", which joined
"delta_addrs" addresses in all).

Diagnostics (unbound reads and fields) are those of each context's last
full step. An unbound read is a read, so the delta that binds it forces
a full step; an earlier step's complaint about a binding that arrived
later is dropped.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

# eagc, abstract_next and store_join are called through this module's
# globals, where the traced benchmark (perfbench/layers.py) wraps them
from .domain import (
    BOTTOM, CallFrame, ControlState, Epsilon, EPSILON, Policy, Push,
    frame_key, inject_abstract, next as abstract_next, state_key, store_join,
)
from .gc import Collection, eagc
from .syntax import LabeledProgram


@dataclass
class Budget:
    max_nodes: int = 200_000
    max_edges: int = 2_000_000
    max_seconds: float = 60.0


class BudgetExceeded(Exception):
    def __init__(self, what: str, nodes: int, edges: int, elapsed: float):
        super().__init__(
            f"analysis budget exceeded ({what}): "
            f"{nodes} nodes, {edges} edges, {elapsed:.1f}s")
        self.what = what
        self.nodes = nodes
        self.edges = edges
        self.elapsed = elapsed


class Worklist:
    """The nodes waiting for a step, popped lowest discovery rank
    first: a node's rank is the order in which it was first pushed.

    Nodes found earlier are mostly upstream of later ones, so a node's
    re-step waits until the nodes feeding it have settled instead of
    running once per growth of each of them; this is a cheap stand-in
    for the weak topological order of Bourdoncle's chaotic iteration.
    A node is queued at most once, and the order lives in _put and _take
    alone. causes counts, per cause, the pushes that queued a node; a
    push without a cause counts for none."""

    def __init__(self, causes):
        self.causes = dict.fromkeys(causes, 0)
        self.queued: set = set()
        self.rank: dict = {}
        self.heap: list = []           # (rank, node); ranks are unique

    def push(self, s, cause: str | None = None) -> None:
        if s in self.queued:
            return
        self.queued.add(s)
        self._put(s)
        if cause is not None:
            self.causes[cause] += 1

    def pop(self):
        s = self._take()
        self.queued.discard(s)
        return s

    def __len__(self) -> int:
        return len(self.queued)

    def _put(self, s) -> None:
        heappush(self.heap, (self.rank.setdefault(s, len(self.rank)), s))

    def _take(self):
        return heappop(self.heap)[1]


class IECG:
    """The four closure maps plus change bookkeeping for the engine.

    Map mutations funnel through the add_* helpers so growth is recorded
    in the dirty_* lists; the engine drains those to schedule re-steps
    and summary creation. add_tf and add_pfp walk eps_next on their own
    stack, never by recursion. psf_deps holds one PSF dependency per
    push or epsilon edge, so drain can pass each PSF delta on."""

    def __init__(self):
        self.eps_next: dict = {}       # node -> direct epsilon successors
        self.top_frames: dict = {}
        self.psf: dict = {}
        self.pfp: dict = {}
        self.psf_deps: dict = {}       # node -> nodes its PSF flows into
        self.dirty_tf: list = []       # nodes whose TF grew
        self.dirty_psf: list = []      # (node, its new PSF pointers)
        self.dirty_pfp: list = []      # (node, frame, new push source)

    def tf(self, s) -> set:
        return self.top_frames.get(s, set())

    def add_tf(self, s, frame) -> None:
        """frame is on top at s and at everything epsilon-after s."""
        work = [s]
        while work:
            s = work.pop()
            have = self.top_frames.setdefault(s, set())
            if frame in have:
                continue
            have.add(frame)
            self.dirty_tf.append(s)
            if isinstance(frame, CallFrame):
                self.add_psf(s, (frame.fp,))
            work.extend(self.eps_next.get(s, ()))

    def add_pfp(self, s, frame, src) -> None:
        """src pushed frame on a path to s and all epsilon-after s."""
        work = [s]
        while work:
            s = work.pop()
            have = self.pfp.setdefault((s, frame), set())
            if src in have:
                continue
            have.add(src)
            self.dirty_pfp.append((s, frame, src))
            work.extend(self.eps_next.get(s, ()))

    def add_psf(self, s, fps) -> None:
        """Join call-frame pointers into PSF(s). The ones that are new
        are recorded in dirty_psf, for drain to pass on to psf_deps[s]
        and to s's collection."""
        have = self.psf.setdefault(s, set())
        new = [fp for fp in fps if fp not in have]
        if new:
            have.update(new)
            self.dirty_psf.append((s, new))

    def add_psf_pred(self, s, p) -> None:
        """A push or epsilon edge made p a predecessor of s: everything
        on the stack at p is on the stack at s, now and after every later
        growth."""
        deps = self.psf_deps.setdefault(p, set())
        if s not in deps:
            deps.add(s)
            self.add_psf(s, self.psf.get(p, ()))


def propagate(s1, s2, iecg: IECG) -> IECG:
    """Record an epsilon edge s1 -> s2 and close the maps over it.

    s2 takes s1's top frames and push sources, which add_tf and add_pfp
    pass on to everything epsilon-after s2; those of s1's epsilon
    predecessors are already at s1. PSF(s2) depends on s1 along this
    edge only; drain carries it on along the later edges."""
    iecg.eps_next.setdefault(s1, set()).add(s2)
    for f in list(iecg.tf(s1)):
        iecg.add_tf(s2, f)
        for w in list(iecg.pfp.get((s1, f), ())):
            iecg.add_pfp(s2, f, w)
    iecg.add_psf_pred(s2, s1)
    return iecg


def process_push(s1, frame, s2, iecg: IECG) -> IECG:
    """A push edge (s1, push frame, s2): the frame is now on top at s2
    and at everything epsilon-reachable from s2, pushed from s1. The
    stack summary depends on s1 at s2 alone, as in propagate."""
    iecg.add_psf_pred(s2, s1)
    iecg.add_tf(s2, frame)
    iecg.add_pfp(s2, frame, s1)
    return iecg


def process_pop(s1, frame, s2, iecg: IECG) -> list:
    """A pop edge (s1, pop frame, s2) cancels against every recorded
    push of that frame reaching s1: each push source w yields a summary
    epsilon edge (w, s2), propagated here and returned for the caller to
    record in the graph."""
    pairs = []
    for w in sorted(iecg.pfp.get((s1, frame), ()), key=state_key):
        propagate(w, s2, iecg)
        pairs.append((w, s2))
    return pairs


@dataclass
class DSG:
    """Analysis result: the explored graph, per-node stores, the closure
    maps, and run metadata. node_stores holds the visible (collected)
    stores; full_stores the raw monotone joins backing them. Stores are
    shared between nodes and must not be mutated."""

    lp: LabeledProgram
    policy: Policy
    initial: ControlState
    nodes: set = field(default_factory=set)
    edges: set = field(default_factory=set)
    node_stores: dict = field(default_factory=dict)
    full_stores: dict = field(default_factory=dict)
    iecg: IECG = field(default_factory=IECG)
    diagnostics: set = field(default_factory=set)
    stats: dict = field(default_factory=dict)

    def node_store(self, q) -> dict:
        return self.node_stores.get(q, {})


class _Stepped:
    """What the core keeps about a node it has stepped: the addresses
    its full store grew at since its last dequeue, its collection, the
    root pointers new on its stack since that collection, and the memo
    of the last full step under each context (the addresses read, the
    successor states and the diagnostics)."""

    __slots__ = ("grown", "collection", "roots", "memo")

    def __init__(self):
        self.grown = None              # a set once the first step began
        self.collection = None
        self.roots: set = set()
        self.memo: dict = {}


class _Engine:
    """The fixpoint core both analyses run on. A stack abstraction
    subclasses it and supplies `causes`, its step causes beyond
    new_node and store; `contexts(s)`, the frames that may be on top
    of the stack at s, in order (BOTTOM for the empty stack, None for
    a statement whose step needs no top frame); `step(s, top, sigma,
    reads, diags)`, s's (state, action, store) successors under top
    (None for BOTTOM) and sigma, the visible store, with the addresses
    read added to reads;
    `new_edge(s, act, s2)`, called once per new edge; `after_step()`,
    the work a step leaves behind; and `stack_fps(s)`, the GC-root
    pointers of s's stack at its first collection (eagc). Root pointers
    that join s's stack later are handed to `add_roots`, which keeps
    them for s's next collection (Collection.extend).

    A dequeued node is stepped in full under a context only when the
    context is new to it or the visible store changed at an address the
    context's last full step read. Otherwise the memo of that step
    stands, and only the visible delta is joined into the memoized
    successors' full stores: the step's own result on the grown store,
    given what domain.next promises about its reads."""

    causes: tuple = ()

    def __init__(self, lp: LabeledProgram, policy: Policy, budget: Budget):
        self.lp = lp
        self.policy = policy
        self.budget = budget
        q0 = inject_abstract(lp)
        self.dsg = DSG(lp=lp, policy=policy, initial=q0)
        self.dsg.nodes.add(q0)
        self.dsg.node_stores[q0] = {}
        self.work = Worklist(("new_node", "store") + self.causes)
        self.work.push(q0)
        self.stepped: dict = {}        # node -> _Stepped
        self.t0 = _time.monotonic()

    def contexts(self, s):
        raise NotImplementedError

    def step(self, s, ctx, sigma: dict, reads: set, diags: list):
        raise NotImplementedError

    def new_edge(self, s1, act, s2) -> None:
        pass

    def after_step(self) -> None:
        pass

    def stack_fps(self, s):
        raise NotImplementedError

    # -- bookkeeping ----------------------------------------------------

    def join_store(self, s, sigma2: dict) -> None:
        """Join into the monotone layer; only growth there re-enqueues
        (the collected view may shrink bindings a predecessor keeps
        re-delivering, which must not count as progress). The grown
        addresses of a node already stepped are kept for its next
        collection."""
        old = self.dsg.full_stores.get(s, {})
        node = self.stepped.get(s)
        joined = store_join(old, sigma2, None if node is None else node.grown)
        if joined is not old:
            self.dsg.full_stores[s] = joined
            if not self.policy.gc:
                self.dsg.node_stores[s] = joined
            self.work.push(s, "store")

    def add_node(self, s) -> None:
        if s in self.dsg.nodes:
            return
        if len(self.dsg.nodes) >= self.budget.max_nodes:
            raise BudgetExceeded("nodes", len(self.dsg.nodes),
                                 len(self.dsg.edges), self.elapsed())
        self.dsg.nodes.add(s)
        self.dsg.node_stores.setdefault(s, {})
        self.dsg.full_stores.setdefault(s, {})
        self.work.push(s, "new_node")

    def add_roots(self, s, fps, cause: str) -> None:
        """fps joined the root pointers of s's stack. A node not yet
        collected takes its whole stack at its first collection; for
        any other, fps are kept for the next one, and s is woken only
        when its last collection left out an address under one of them,
        as otherwise its visible store stays the same."""
        node = self.stepped.get(s)
        if node is None or node.collection is None:
            return
        node.roots.update(fps)
        pending = node.collection.pending
        if any(fp in pending for fp in fps):
            self.work.push(s, cause)

    def add_edge(self, s1, act, s2) -> bool:
        """Record the edge; True when it is new."""
        edge = (s1, act, s2)
        if edge in self.dsg.edges:
            return False
        if len(self.dsg.edges) >= self.budget.max_edges:
            raise BudgetExceeded("edges", len(self.dsg.nodes),
                                 len(self.dsg.edges), self.elapsed())
        self.dsg.edges.add(edge)
        return True

    def elapsed(self) -> float:
        return _time.monotonic() - self.t0

    def check_time(self) -> None:
        if self.elapsed() > self.budget.max_seconds:
            raise BudgetExceeded("time", len(self.dsg.nodes),
                                 len(self.dsg.edges), self.elapsed())

    # -- main loop -------------------------------------------------------

    def visible_store(self, s, node: _Stepped):
        """Collect s's full store; return the visible store and the
        visible delta since s's last dequeue (None at its first)."""
        full = self.dsg.full_stores.get(s, {})
        grown, node.grown = node.grown, set()
        if not self.policy.gc:
            return full, grown
        if grown is None:
            node.collection = Collection(s, self.lp, self.policy)
            sigma = eagc(s, full, self.stack_fps(s), self.lp, self.policy,
                         state=node.collection)
            delta = None
        else:
            roots, node.roots = node.roots, set()
            delta = node.collection.extend(full, grown, roots)
            sigma = node.collection.visible
        self.dsg.node_stores[s] = sigma
        return sigma, delta

    def run(self) -> DSG:
        steps = full_steps = delta_passes = delta_addrs = 0
        while self.work:
            self.check_time()
            s = self.work.pop()
            steps += 1
            node = self.stepped.get(s)
            if node is None:
                node = self.stepped[s] = _Stepped()
            sigma, delta = self.visible_store(s, node)
            memo = node.memo
            passed = None              # delta as a store, built once
            for ctx in self.contexts(s):
                last = memo.get(ctx)
                if last is None or not last[0].isdisjoint(delta):
                    full_steps += 1
                    reads: set = set()
                    diags: list = []
                    succs = []
                    top = None if ctx is BOTTOM else ctx
                    for q2, act, sg2 in self.step(s, top, sigma, reads, diags):
                        self.add_node(q2)
                        self.join_store(q2, sg2)
                        if self.add_edge(s, act, q2):
                            self.new_edge(s, act, q2)
                        succs.append(q2)
                    memo[ctx] = (reads, succs, diags)
                    continue
                delta_passes += 1
                if not delta:
                    continue
                delta_addrs += len(delta)
                if passed is None:
                    passed = {a: sigma[a] for a in delta}
                for q2 in last[1]:
                    self.join_store(q2, passed)
            self.after_step()
        self.dsg.diagnostics = {
            (q.stmt.label, reason)
            for node in self.stepped.values()
            for _, _, diags in node.memo.values() for q, reason in diags}
        self.dsg.stats = {
            "steps": steps,
            "nodes": len(self.dsg.nodes),
            "edges": len(self.dsg.edges),
            "seconds": self.elapsed(),
            "step_causes": dict(self.work.causes),
            "full_steps": full_steps,
            "delta_passes": delta_passes,
            "delta_addrs": delta_addrs,
        }
        return self.dsg


class _PushdownEngine(_Engine):
    """The pushdown stack abstraction: top frames, stack summaries and
    summary edges, kept in the IECG and closed by drain after each
    step. A node's contexts are its top frames, and its stack roots
    are its stack summary."""

    causes = ("top_frames", "gc_roots")

    def __init__(self, lp: LabeledProgram, policy: Policy, budget: Budget):
        super().__init__(lp, policy, budget)
        self.iecg = self.dsg.iecg
        self.iecg.top_frames[self.dsg.initial] = {BOTTOM}
        self.pop_targets: dict = {}    # (node, frame) -> set of pop dests
        self.pending_edges: deque = deque()

    def contexts(self, s):
        return sorted(self.iecg.tf(s), key=frame_key)

    def step(self, s, top, sigma, reads, diags):
        return abstract_next(self.lp, s, sigma, top, self.policy, diags,
                             reads)

    def new_edge(self, s1, act, s2) -> None:
        self.pending_edges.append((s1, act, s2))

    def stack_fps(self, s):
        return self.iecg.psf.get(s, ())

    def after_step(self) -> None:
        self.drain()

    def drain(self) -> None:
        """Dispatch pending edges into the closure maps and chase every
        consequence (summaries, PSF growth, re-enqueues) to a fixpoint.
        The time budget is checked on every round, since one step's
        edges can start a long chase."""
        iecg = self.iecg
        while True:
            self.check_time()
            if self.pending_edges:
                s1, act, s2 = self.pending_edges.popleft()
                if isinstance(act, Epsilon):
                    propagate(s1, s2, iecg)
                elif isinstance(act, Push):
                    process_push(s1, act.frame, s2, iecg)
                else:
                    key = (s1, act.frame)
                    self.pop_targets.setdefault(key, set()).add(s2)
                    for w, dst in process_pop(s1, act.frame, s2, iecg):
                        self.add_edge(w, EPSILON, dst)
                continue
            if iecg.dirty_pfp:
                s, f, w = iecg.dirty_pfp.pop()
                # a new push source behind an already-seen pop edge
                # yields summaries the pop itself could not have known
                for dst in sorted(self.pop_targets.get((s, f), ()),
                                  key=state_key):
                    if self.add_edge(w, EPSILON, dst):
                        propagate(w, dst, iecg)
                continue
            if iecg.dirty_tf:
                self.work.push(iecg.dirty_tf.pop(), "top_frames")
                continue
            if iecg.dirty_psf:
                s, new = iecg.dirty_psf.pop()
                for dep in iecg.psf_deps.get(s, ()):
                    iecg.add_psf(dep, new)
                self.add_roots(s, new, "gc_roots")
                continue
            return


def analyze(lp: LabeledProgram, policy: Policy | None = None,
            budget: Budget | None = None) -> DSG:
    """Run the full analysis and return the final graph."""
    if policy is None:
        policy = Policy()
    engine = _PushdownEngine
    if policy.mode == "finite":
        from .finite import _FiniteEngine as engine
    return engine(lp, policy, budget or Budget()).run()
