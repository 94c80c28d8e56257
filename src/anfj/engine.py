"""Dyck state graph synthesis, on the fixpoint core both analyses share.

The core (_Engine) owns the worklist, the full and stepped stores,
the nodes and edges, the budgets and clock, the collection
before each step, the memo of each step and the delta passes it allows,
the fixpoint diagnostics, DSG.stats and, under GC, the root graph of
the stacks (RootGraph): one live set per activation of the GC-root
pointers of its stack. A stack abstraction supplies the same two
things to it: the top frames a node is stepped under, and the frames
it pushes, which grow the root graph by one rule of the core.
_PushdownEngine below is the pushdown abstraction; finite._FiniteEngine
is the finite-state baseline, which differs from it in stack handling
alone.

The pushdown analysis explores abstract control states, but the
stack is never materialized: each node carries a set of possible top
frames (TF), and balanced push/pop paths are collapsed into summary
epsilon edges as they are discovered (Earl et al.'s epsilon-closure
graph). The bookkeeping lives in two maps:

  eps_next              each node's direct epsilon successors
  closure               node -> top frame -> (push sources, pop targets):
                        the frames on top of the stack at the node (TF),
                        the nodes that pushed each onto a balanced path
                        reaching the node, and the targets of the node's
                        pop edges of it

BOTTOM, the empty stack, is the one top frame that nothing pushed. A
pop edge (s1, pop g, s2) turns each push source w of g at s1 into a
summary edge (w, eps, s2): the push and the pop cancel, so anything
that held before the push holds after the pop; a push source new
behind a recorded pop does the same. Summaries feed the same closure,
so deeper cancellations cascade. A call or a try only pushes, so its
epsilon successors are exactly its summary targets.

A top frame or push source new at a node is passed along its direct
epsilon edges, and on from each node where it is new (semi-naive, in
one walk, IECG.add), so every epsilon edge (p, n) has TF(p) <= TF(n)
and each frame's push sources at p among those at n, and a new epsilon
edge need read them at its source only.

Stores are split between the frames of the stack, as in CFA2
(Vardoulakis & Shivers), on the pushdown system with abstract GC of
Johnson, Sergey, Earl, Might & Van Horn. domain.next reads a node's own
frame and the heap (the bindings on object pointers), and writes its
own frame, a callee's at a call and the top frame's at a return or a
catch. So a node's stepped store holds its own frame and the heap, and
an edge into another activation, a push or a pop, carries the heap and
that activation's frame only: a callee never sees its callers' locals.
They come back by the summary edges instead. A summary edge (w, eps,
s2) carries w's own-frame bindings into s2 when it is made, and each
later growth of them when w is dequeued, as a delta pass does to
memoized successors. A throw that unwinds a call frame stays at its own
node (a pop self-edge), so the caller bindings its handler needs arrive
there by summary edges; they lie on the frame pointers of its top
frames, which their activation's root set holds, so its collection
keeps them.

The stack summary (PSF) is the root graph's set of the activation. It
keeps pointers, not frames, because its one reader is the collection,
whose stack roots are what the frames on the stack hold (the root set
of Might & Shivers' Gamma-CFA): the frame pointers of the call frames,
and the objects bound in the frames beneath. Every node of an
activation (a method and a frame pointer) is epsilon-reachable from its
entry and has the same stack beneath it, so the activation keeps one
set. The closure records know nothing of it: the graph grows from
stack actions, by one rule both engines share (_Engine.pushed). A call
frame pushed onto an activation's stack adds its frame pointer, and
puts the stack of the activation it returns to beneath, and so does
its call site, a key of its own holding the objects its own frame
binds from its first collection on. A call frame is on top at a node
only when it was pushed into the node's activation or came along a
summary edge into a throw in another activation, which puts its
source's stack beneath the throw's (add_summary); so these give the
least sets. Handler frames and the empty-stack marker own no bindings
and never enter it. The graph passes each new pointer on by deltas and
records it, and the core's wake hands it, after each step, only to the
nodes whose last collection left out an address under it. With GC off
nothing reads it, so no graph is built.

The analysis keeps two stores per node. The full store is the
monotone join of everything ever flowed into the node; growth of it or
of TF re-enqueues the node, and monotonicity is what makes the fixpoint
terminate even though the graph has cycles. The stepped store is the
garbage-collected view of the full store, which the steps see, and
which export and metrics read; with gc off the two are the same object.
Every store is a machine.Store, the concrete machine's: a base shared
by many stores under a small delta of its own. A rule's successor
store is its node's stepped store with a few bindings set, a join
writes a few more, and a collection's view grows the same way, so the
stores along a path share their bases, and the export and metrics read
each base once. A join reads the whole store it joins in: the engine's
joins almost never meet two stores over one base.
A node's visible store adds the bindings of the frames beneath it.
Those are bindings its push sources' stepped stores hold already, so
the result keeps each node's push sources (DSG.sources, the closure's
push sources over all the node's frames) instead of copies, and builds
no visible store. The finite baseline has no push/pop matching and
carries every binding along every edge, so it has no push sources.

A re-enqueue is not a re-step. At each dequeue the core extends the
node's collection (gc.Collection) from the addresses that grew in its
full store, which the joins since its last dequeue wrote down with
their new value sets, and the root pointers handed to it since. That
gives the stepped delta: the addresses whose stepped binding changed,
with their value sets, a store delta that a delta pass joins as it is.
A pointer joining the root set is handed to a node, and wakes it, only
when the node's last collection left out an address under it (the
core's pending-pointer index, waiting); otherwise the stepped store
would not change. A node is stepped per
context (here, per top frame), and each context's last full step is
memoized with the addresses domain.next read. The context is stepped
in full again only when it is new or the delta touches one of those
reads; otherwise the delta is joined into the full stores of the
memoized successors, which is exactly what the step would add.

The core's worklist (Worklist) steps the queued node that was
discovered first. Upstream nodes are mostly found first, so a node is
re-stepped once its feeders have settled rather than once per growth
of each. The fixpoint, and so every output, does
not depend on this order; only the step count does.

DSG.stats counts steps (dequeues) and, under "step_causes", why each
was scheduled: a new node, store growth, TF growth or GC-root growth.
The initial node is scheduled by none of them, so steps = 1 + the sum.
A step with a stepped delta visits every context of its node once, by
a full step ("full_steps") or by a delta pass ("delta_passes", which
joined "delta_addrs" addresses in all). A step without one leaves every
memo standing, so it visits only the contexts new since the node's
last step (for the pushdown engine, the top frames new in its TF),
each by a full step.

Diagnostics (unbound reads and fields) are those of each context's last
full step. An unbound read is a read, so the delta that binds it forces
a full step; an earlier step's complaint about a binding that arrived
later is dropped.
"""

from __future__ import annotations

import time as _time
from collections.abc import Mapping
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter

# eagc, abstract_next and store_join are called through this module's
# globals, where the traced benchmark (perfbench/layers.py) wraps them
from .domain import (
    BOTTOM, CallFrame, ControlState, Epsilon, EPSILON, Policy, Push,
    action_key, frame_key, inject_abstract, next as abstract_next, state_key,
    store_join,
)
from .gc import Collection, eagc
from .machine import EMPTY, ObjPtr, Store
from .syntax import Assign, Invoke, LabeledProgram, Stmt, TryCatch


def activation(lp: LabeledProgram, stmt: Stmt, fp) -> tuple:
    """The key of the activation that runs stmt under the frame pointer
    fp: its method and fp. The root graph keys its root sets by it, the
    finite baseline its table."""
    return lp.method_of[stmt.label], fp


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


class RootGraph:
    """The GC-root pointers of every stack, one live set per key, with
    the keys whose stacks hold each key's stack: the root set of Might
    & Shivers' Gamma-CFA, read from the whole stack. A key's set holds
    its own pointers and those of every key beneath it.

    add joins pointers into a key's set and passes the new ones on to
    every key above it, semi-naively; beneath records that one key's
    stack holds another's and passes on what the lower one holds. Each
    growth is recorded in grown as (key, its new pointers), which the
    core's wake drains. A collection reads the set of its activation by
    membership, and never copies it."""

    __slots__ = ("ptrs", "above", "grown")

    def __init__(self):
        self.ptrs: dict = {}           # key -> its root pointers
        self.above: dict = {}          # key -> the keys whose stacks hold it
        self.grown: list = []          # (key, its new pointers), for wake

    def add(self, key, ptrs: set) -> None:
        """ptrs are on the stack of key and of every key above it."""
        ptrs_of, above, grown = self.ptrs, self.above, self.grown
        work = [((key,), ptrs)]
        while work:
            keys, ptrs = work.pop()
            for key in keys:
                have = ptrs_of.get(key)
                if have is None:
                    have = ptrs_of[key] = set()
                new = ptrs - have
                if new:
                    have |= new
                    grown.append((key, new))
                    ups = above.get(key)
                    if ups:
                        work.append((ups, new))

    def beneath(self, below, key) -> None:
        """The stack of key holds the stack of below, now and after
        every later growth. A key is beneath itself already."""
        if below == key:
            return
        ups = self.above.setdefault(below, set())
        if key not in ups:
            ups.add(key)
            have = self.ptrs.get(below)
            if have:
                self.add(key, have)


class IECG:
    """The epsilon-closure graph, as one record per (node, top frame),
    plus change bookkeeping for the engine.

    closure maps a node to its top frames, and each to its record: the
    push sources of the frame (the nodes that pushed it on a balanced
    path reaching the node) and the pop targets of the node's pop edges
    of it. BOTTOM, the empty stack, is the one frame nothing pushed.
    Records grow through add alone, which writes the growth down in
    the dirty_* lists; the engine drains those to schedule re-steps and
    summary creation. add walks eps_next on its own stack, never by
    recursion. The closure knows nothing of GC: the stack roots grow
    from the engine's stack actions (_Engine.pushed, add_summary)."""

    def __init__(self):
        self.eps_next: dict = {}       # node -> direct epsilon successors
        self.closure: dict = {}        # node -> top frame ->
                                       # (push sources, pop targets)
        self.dirty_tf: list = []       # nodes whose TF grew, once per frame
        self.dirty_pfp: list = []      # (node, frame, new push source)

    def tf(self, s):
        """The top frames of s."""
        return self.closure.get(s, {}).keys()

    def add(self, s, frame, src=None) -> None:
        """frame is on top at s and at everything epsilon-after s,
        pushed by src (None for BOTTOM, which nothing pushed)."""
        closure, eps_next = self.closure, self.eps_next
        work = [s]
        while work:
            s = work.pop()
            tops = closure.setdefault(s, {})
            rec = tops.get(frame)
            if rec is None:
                rec = tops[frame] = (set(), set())
                self.dirty_tf.append(s)
            elif src is None or src in rec[0]:
                continue
            if src is not None:
                rec[0].add(src)
                self.dirty_pfp.append((s, frame, src))
            work.extend(eps_next.get(s, ()))


def propagate(s1, s2, iecg: IECG) -> None:
    """Record an epsilon edge s1 -> s2 and close the records over it.

    s2 takes s1's top frames and push sources, which add passes on to
    everything epsilon-after s2; those of s1's epsilon predecessors are
    already at s1."""
    iecg.eps_next.setdefault(s1, set()).add(s2)
    for f, (srcs, _) in list(iecg.closure.get(s1, {}).items()):
        for w in list(srcs) or (None,):
            iecg.add(s2, f, w)


def process_push(s1, frame, s2, iecg: IECG) -> None:
    """A push edge (s1, push frame, s2): the frame is now on top at s2
    and at everything epsilon-reachable from s2, pushed from s1."""
    iecg.add(s2, frame, s1)


def process_pop(s1, frame, s2, iecg: IECG) -> list:
    """A pop edge (s1, pop frame, s2), recorded as a pop target of
    frame at s1, cancels against every recorded push of that frame
    reaching s1: each push source w yields a summary epsilon edge (w,
    s2), which the caller adds. Returns the push sources, in state_key
    order."""
    srcs, pops = iecg.closure[s1][frame]
    pops.add(s2)
    return sorted(srcs, key=state_key)


@dataclass
class DSG:
    """Analysis result: the explored graph, per-node stores, the closure
    records, the root graph of the stacks, and run metadata.
    node_stores holds the stepped (collected) stores, which export and
    metrics read; full_stores the raw monotone joins behind them;
    sources each node's push sources, none in the finite baseline;
    roots the root graph, None with GC off. A node's visible store
    follows from the stepped stores and the edges, and is not built.
    Stores are shared between nodes and must not be mutated."""

    lp: LabeledProgram
    policy: Policy
    initial: ControlState
    nodes: set = field(default_factory=set)
    edges: set = field(default_factory=set)
    node_stores: dict = field(default_factory=dict)
    full_stores: dict = field(default_factory=dict)
    sources: dict = field(default_factory=dict)
    iecg: IECG = field(default_factory=IECG)
    roots: RootGraph | None = None
    diagnostics: set = field(default_factory=set)
    stats: dict = field(default_factory=dict)
    _order: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def order(self) -> tuple:
        """(nodes, ids, edges), the order both exports write in: the
        nodes sorted by state_key, each node's index among them, and the
        edges as ((source id, action_key, target id), action) pairs in
        the order of that key. Sorted on the first call only."""
        if self._order is None:
            nodes = sorted(self.nodes, key=state_key)
            ids = {q: i for i, q in enumerate(nodes)}
            edges = sorted((((ids[s1], action_key(act), ids[s2]), act)
                            for s1, act, s2 in self.edges), key=itemgetter(0))
            self._order = nodes, ids, edges
        return self._order


def push_sources(closure: dict) -> dict:
    """Node -> the frozenset of its push sources, over all its top
    frames, for the nodes that have any."""
    srcs = {s: frozenset().union(*(ws for ws, _ in tops.values()))
            for s, tops in closure.items()}
    return {s: ws for s, ws in srcs.items() if ws}


def _objects(sigma: Mapping) -> set:
    """The object pointers of the values sigma binds."""
    return {v.op for layer in Store.layers(sigma)
            for vals in layer.values() for v in vals}


def heap_and_frame(sigma: Mapping, fp) -> Store:
    """The bindings of sigma on object pointers and on the frame pointer
    fp: what a push or pop edge carries into the activation fp."""
    own = {fp}                         # a set: hashing skips most __eq__
    return Store.adopt({a: vals for layer in Store.layers(sigma)
                        for a, vals in layer.items()
                        if type(a.ptr) is ObjPtr or a.ptr in own})


def own_frame(sigma: Mapping, fp) -> Store:
    """The bindings of sigma on the frame pointer fp."""
    own = {fp}
    return Store.adopt({a: vals for layer in Store.layers(sigma)
                        for a, vals in layer.items() if a.ptr in own})


class _Stepped:
    """What the core keeps about a node it has stepped: the delta of its
    full store since its last dequeue (each address that grew, with its
    new value set), its collection, the root pointers that joined its
    stack since that collection under an address it left out, and the
    memo of the last full step under each context (the addresses read,
    the successor states and the diagnostics)."""

    __slots__ = ("grown", "collection", "roots", "memo")

    def __init__(self):
        self.grown = None              # a dict once the first step began
        self.collection = None
        self.roots: set = set()
        self.memo: dict = {}


class _Engine:
    """The fixpoint core both analyses run on. A stack abstraction
    subclasses it and supplies `causes`, its step causes beyond
    new_node and store; `contexts(s)`, the frames that may be on top
    of the stack at s, in order (BOTTOM for the empty stack, None for
    a statement whose step needs no top frame); `new_edge(s, act,
    s2)`, called once per new edge; `after_step()`, the work a step
    leaves behind; and `root_cause`, the step cause of root growth. It
    may also override `step(s, top, sigma, reads, diags)`, s's (state,
    action, store) successors under top (None for BOTTOM) and sigma,
    the stepped store, with the addresses read added to reads, which
    is domain.next's by default.

    Under GC the core owns the root graph of the stacks (RootGraph,
    which the result keeps as DSG.roots), keyed by activation (act),
    and every collection of an activation's nodes reads the
    activation's set by membership. The stack abstraction grows the
    graph through `pushed`, the one rule for a call frame pushed onto
    a stack, and the core calls `wake` after each step, the one path
    by which new roots reach a collection: a node whose last
    collection left out an address under a new pointer is handed the
    pointer for its next collection (Collection.extend) and woken; any
    other keeps its stepped store, and reads the pointer in the set
    later. With GC off no graph is built.

    A dequeued node is stepped in full under a context only when the
    context is new to it or the stepped store changed at an address the
    context's last full step read. Otherwise the memo of that step
    stands, and only the delta is joined into the memoized successors'
    full stores: the step's own result on the grown store, given what
    domain.next promises about its reads. A push or pop edge into
    another activation carries only the heap and that activation's
    frame (heap_and_frame), in a full step and in a delta pass alike;
    the finite baseline's edges are all epsilon, so it carries
    everything."""

    causes: tuple = ()

    def __init__(self, lp: LabeledProgram, policy: Policy, budget: Budget):
        self.lp = lp
        self.policy = policy
        self.budget = budget
        q0 = inject_abstract(lp)
        self.roots = RootGraph() if policy.gc else None
        self.dsg = DSG(lp=lp, policy=policy, initial=q0, roots=self.roots)
        self.dsg.nodes.add(q0)
        self.dsg.node_stores[q0] = EMPTY
        # node -> its activation's key under GC, built once and read at
        # each use; with GC off nothing reads it
        self.act: dict = ({q0: activation(lp, q0.stmt, q0.fp)}
                          if policy.gc else {})
        self.work = Worklist(("new_node", "store") + self.causes)
        self.work.push(q0)
        self.stepped: dict = {}        # node -> _Stepped
        self.waiting: dict = {}        # activation -> pointer -> nodes whose
                                       # collection left an address under it
        self.t0 = _time.monotonic()
        self.deadline = self.t0 + budget.max_seconds

    def contexts(self, s):
        raise NotImplementedError

    def new_contexts(self, s, memo):
        """The contexts of s that no step of s has visited yet: every
        visit memoizes each context it takes, so these are the ones
        new since s's last step."""
        return [ctx for ctx in self.contexts(s) if ctx not in memo]

    def step(self, s, top, sigma: Mapping, reads: set, diags: list):
        return abstract_next(self.lp, s, sigma, top, self.policy, diags,
                             reads)

    def new_edge(self, s1, act, s2) -> None:
        pass

    def after_step(self) -> None:
        pass

    # -- bookkeeping ----------------------------------------------------

    def join_store(self, s, sigma2: Mapping) -> None:
        """Join into the monotone layer; only growth there re-enqueues
        (the collected view may shrink bindings a predecessor keeps
        re-delivering, which must not count as progress). The grown
        addresses of a node already stepped are kept, with their value
        sets, for its next collection."""
        old = self.dsg.full_stores.get(s, EMPTY)
        node = self.stepped.get(s)
        joined = store_join(old, sigma2, None if node is None else node.grown)
        if joined is not old:
            self.dsg.full_stores[s] = joined
            if not self.policy.gc:
                self.dsg.node_stores[s] = joined
            self.work.push(s, "store")

    def add_node(self, s) -> bool:
        """Record the node, and under GC the key of the activation it
        runs in; True when it is new."""
        if s in self.dsg.nodes:
            return False
        if len(self.dsg.nodes) >= self.budget.max_nodes:
            raise BudgetExceeded("nodes", len(self.dsg.nodes),
                                 len(self.dsg.edges), self.elapsed())
        self.dsg.nodes.add(s)
        self.dsg.node_stores.setdefault(s, EMPTY)
        self.dsg.full_stores.setdefault(s, EMPTY)
        if self.roots is not None:
            self.act[s] = activation(self.lp, s.stmt, s.fp)
        self.work.push(s, "new_node")
        return True

    def pushed(self, frame, key, site=None) -> None:
        """frame was pushed onto the stack of the activation key. A
        call frame's pointer joins key's root set, and the stack of
        the activation it returns to goes beneath key's, and so does
        site, the call site, when given; a handler frame owns no
        root. Called under GC only, where a root graph exists."""
        roots = self.roots
        if not isinstance(frame, CallFrame):
            return
        roots.add(key, {frame.fp})
        if site is None:
            roots.beneath(activation(self.lp, frame.target, frame.fp), key)
        else:                          # the frame returns to site's activation
            roots.beneath(self.act[site], key)
            roots.beneath(site, key)

    def wake(self) -> None:
        """Drain the root graph's growth: each pointer that joined the
        root set of an activation goes to the nodes whose last
        collection left out an address under it, for their next
        collection, and wakes them. The others' stepped stores stay the
        same. Called under GC only, where a root graph exists."""
        roots = self.roots
        waiting_at, stepped = self.waiting, self.stepped
        for key, ptrs in roots.grown:
            waiting = waiting_at.get(key)
            if waiting:
                for p in ptrs:
                    for s in waiting.pop(p, ()):
                        node = stepped[s]
                        if p in node.collection.pending:
                            node.roots.add(p)
                            self.work.push(s, self.root_cause)
        roots.grown.clear()

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
        if _time.monotonic() > self.deadline:
            raise BudgetExceeded("time", len(self.dsg.nodes),
                                 len(self.dsg.edges), self.elapsed())

    # -- main loop -------------------------------------------------------

    def stepped_store(self, s, node: _Stepped):
        """Collect s's full store; return the stepped store and the
        delta since s's last dequeue (None at its first): the addresses
        whose binding in it changed, each with its new value set."""
        full = self.dsg.full_stores.get(s, EMPTY)
        grown, node.grown = node.grown, {}
        if not self.policy.gc:
            return full, grown
        lp = self.lp
        collection = node.collection
        if grown is None:
            collection = node.collection = Collection(s, lp, self.policy)
            stack = self.roots.ptrs.setdefault(self.act[s], set())
            sigma = eagc(s, full, stack, lp, self.policy, state=collection)
            delta = None
        else:
            roots = node.roots
            if roots:
                node.roots = set()
            delta = collection.extend(full, grown, roots)
            sigma = collection.visible
        self.dsg.node_stores[s] = sigma
        if collection.fresh:
            waiting = self.waiting.setdefault(self.act[s], {})
            for p in collection.fresh:
                waiting.setdefault(p, set()).add(s)
        return sigma, delta

    def run(self) -> DSG:
        steps = full_steps = delta_passes = delta_addrs = 0
        work, join_store = self.work, self.join_store
        clock, deadline = _time.monotonic, self.deadline
        while work:
            if clock() > deadline:
                self.check_time()
            s = work.pop()
            steps += 1
            node = self.stepped.get(s)
            if node is None:
                node = self.stepped[s] = _Stepped()
            sigma, delta = self.stepped_store(s, node)
            memo = node.memo
            passed = None              # delta as a store, built once
            # with an empty delta every memo stands: visit new contexts
            # only, each by a full step
            ctxs = (self.new_contexts(s, memo) if delta is not None
                    and not delta else self.contexts(s))
            for ctx in ctxs:
                last = memo.get(ctx)
                if last is None or not last[0].isdisjoint(delta):
                    full_steps += 1
                    reads: set = set()
                    diags: list = []
                    succs = []
                    scoped = []        # successors in another activation
                    top = None if ctx is BOTTOM else ctx
                    for q2, act, sg2 in self.step(s, top, sigma, reads, diags):
                        self.add_node(q2)
                        if act is not EPSILON and q2.fp != s.fp:
                            sg2 = heap_and_frame(sg2, q2.fp)
                            scoped.append(q2)
                        else:
                            succs.append(q2)
                        join_store(q2, sg2)
                        if self.add_edge(s, act, q2):
                            self.new_edge(s, act, q2)
                    memo[ctx] = (reads, succs, diags, scoped)
                    continue
                delta_passes += 1
                delta_addrs += len(delta)
                if passed is None:
                    passed = Store.adopt(delta)
                for q2 in last[1]:
                    join_store(q2, passed)
                for q2 in last[3]:
                    join_store(q2, heap_and_frame(passed, q2.fp))
            self.after_step()
            if self.roots is not None:
                self.wake()
        self.dsg.sources = push_sources(self.dsg.iecg.closure)
        self.dsg.diagnostics = {
            (q.stmt.label, reason)
            for node in self.stepped.values()
            for last in node.memo.values() for q, reason in last[2]}
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
    """The pushdown stack abstraction: one closure record per (node, top
    frame), of its push sources and pop targets, kept in the IECG and
    closed by drain after each step, which creates the summary edges.
    A node's contexts are its top frames, and its stepped store holds
    its own frame and the heap. Under GC a call frame pushed into an
    activation is on its stack, with the caller's stack and the call
    site beneath (pushed), and a summary edge into a throw puts its
    source's stack beneath the throw's (add_summary)."""

    causes = ("top_frames", "gc_roots")
    root_cause = "gc_roots"

    def __init__(self, lp: LabeledProgram, policy: Policy, budget: Budget):
        super().__init__(lp, policy, budget)
        self.iecg = self.dsg.iecg
        self.iecg.closure[self.dsg.initial] = {BOTTOM: (set(), set())}
        self.pending_edges: deque = deque()

    def contexts(self, s):
        return sorted(self.iecg.tf(s), key=frame_key)

    def new_edge(self, s1, act, s2) -> None:
        self.pending_edges.append((s1, act, s2))

    def stepped_store(self, s, node: _Stepped):
        """The core's collection. After it, the part of the delta on s's
        own frame goes on along s's summary edges and, when s is a call
        under GC, the objects it binds join the root set of s as a call
        site. A call or a try only pushes, so its epsilon successors are
        its summary targets; any other node reads no own frame here."""
        sigma, delta = super().stepped_store(s, node)
        stmt = s.stmt
        call = isinstance(stmt, Assign) and isinstance(stmt.exp, Invoke)
        targets = (self.iecg.eps_next.get(s)
                   if call or isinstance(stmt, TryCatch) else None)
        site = call and self.roots is not None
        if targets or site:
            own = own_frame(sigma if delta is None else delta, s.fp)
            if own:
                for s2 in targets or ():
                    self.join_store(s2, own)
                if site:
                    self.roots.add(s, _objects(own))
        return sigma, delta

    def add_summary(self, w, s2) -> None:
        """The summary edge (w, eps, s2), when new: it joins the graph
        and the closure, w's stack goes beneath s2's (a new pair only
        for a summary into a throw, in another activation), and it
        carries w's own-frame bindings into s2, now and, by
        stepped_store, after each growth: s2 is one of w's epsilon
        successors, which are all summary targets."""
        if not self.add_edge(w, EPSILON, s2):
            return
        propagate(w, s2, self.iecg)
        if self.roots is not None:
            self.roots.beneath(self.act[w], self.act[s2])
        own = own_frame(self.dsg.node_stores[w], w.fp)
        if own:
            self.join_store(s2, own)

    def after_step(self) -> None:
        self.drain()

    def drain(self) -> None:
        """Dispatch pending edges into the closure records and chase every
        consequence (summaries, re-enqueues) to a fixpoint. The time
        budget is checked on every round, since one step's edges can
        start a long chase."""
        iecg = self.iecg
        clock, deadline = _time.monotonic, self.deadline
        while True:
            if clock() > deadline:
                self.check_time()
            if self.pending_edges:
                s1, act, s2 = self.pending_edges.popleft()
                if isinstance(act, Epsilon):
                    propagate(s1, s2, iecg)
                elif isinstance(act, Push):
                    process_push(s1, act.frame, s2, iecg)
                    if self.roots is not None:
                        self.pushed(act.frame, self.act[s2], s1)
                else:
                    for w in process_pop(s1, act.frame, s2, iecg):
                        self.add_summary(w, s2)
                continue
            if iecg.dirty_pfp:
                s, f, w = iecg.dirty_pfp.pop()
                # a new push source behind an already-seen pop edge
                # yields summaries the pop itself could not have known
                for dst in sorted(iecg.closure[s][f][1], key=state_key):
                    self.add_summary(w, dst)
                continue
            if iecg.dirty_tf:
                self.work.push(iecg.dirty_tf.pop(), "top_frames")
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
