"""Independent reference computations for the analysis tests.

These deliberately avoid the engine's summarization machinery: configs
carry explicit frame stacks, reachability is a plain worklist closure,
and everything is small and slow. Tests compare the fast implementations
against these on programs where exhaustive exploration fits in memory.
"""

from collections import deque
from dataclasses import dataclass

from anfj.domain import (
    BOTTOM, EPSILON, CallFrame, ControlState, FramePtr, HandlerFrame, ObjPtr,
    Policy, Pop, Push, frame_key, inject_abstract, next as abstract_next,
    state_key, store_join,
)
from anfj.engine import DSG
from anfj.export import FORMAT_NAME, FORMAT_VERSION
from anfj.machine import Addr, Value
from anfj.syntax import THIS, ParseError, PopHandler, Return, Throw


def _cfg_key(cfg):
    q, stack = cfg
    return (state_key(q), len(stack), tuple(frame_key(f) for f in stack))


@dataclass
class ConfigGraph:
    configs: set
    edges: set
    store: dict
    truncated: bool

    def states(self):
        return {q for q, _ in self.configs}

    def top_frames(self):
        """Per state: every observed top-of-stack frame, BOTTOM for the
        empty stack."""
        tf = {}
        for q, stack in self.configs:
            tf.setdefault(q, set()).add(stack[0] if stack else BOTTOM)
        return tf

    def stack_frames(self):
        """Per state: every frame appearing anywhere in some stack."""
        psf = {}
        for q, stack in self.configs:
            psf.setdefault(q, set()).update(stack)
        return psf


def explore_configs(lp, policy: Policy, max_depth: int = 8,
                    max_configs: int = 50_000, stores=None) -> ConfigGraph:
    """Exhaustive abstract exploration with explicit stacks.

    With stores=None a single global store grows to fixpoint (every config
    is re-stepped after growth). Passing stores as a callable
    ControlState -> store freezes the store side: each config is stepped
    once against its state's given store, which reproduces an engine
    run's edges while tracking real stacks."""
    start = (inject_abstract(lp), ())
    sigma: dict = {}
    configs = {start}
    edges = set()
    truncated = False
    work = deque([start])
    while work:
        q, stack = work.popleft()
        top = stack[0] if stack else None
        use = sigma if stores is None else stores(q)
        for q2, act, sg2 in abstract_next(lp, q, use, top, policy):
            if stores is None:
                joined = store_join(sigma, sg2)
                if joined != sigma:
                    sigma = joined
                    work = deque(sorted(configs, key=_cfg_key))
            if isinstance(act, Push):
                stack2 = (act.frame,) + stack
                if len(stack2) > max_depth:
                    truncated = True
                    continue
            elif isinstance(act, Pop):
                stack2 = stack[1:]
            else:
                stack2 = stack
            cfg2 = (q2, stack2)
            if cfg2 not in configs:
                if len(configs) >= max_configs:
                    truncated = True
                    continue
                configs.add(cfg2)
                work.append(cfg2)
            edges.add(((q, stack), act, cfg2))
    return ConfigGraph(configs, edges, sigma, truncated)


def net_empty_pairs(lp, policy: Policy, sources, stores,
                    max_depth: int = 8, max_configs: int = 50_000):
    """All (q1, q2) with a nonempty balanced path q1 -> q2: pushes and pops
    cancel out and the stack never dips below its starting height.

    Runs one search per source over configs (state, stack) starting from
    the empty stack; an empty stack makes `next` treat pops as blocked
    (returns/throws at the virtual bottom have no successors), which is
    exactly the no-dipping side condition. Every revisit of the empty
    stack after at least one step is a balanced arrival."""
    pairs = set()
    truncated = False
    for q1 in sorted(sources, key=state_key):
        seen = {(q1, ())}
        work = deque([(q1, ())])
        while work:
            q, stack = work.popleft()
            top = stack[0] if stack else None
            for q2, act, _ in abstract_next(lp, q, stores(q), top, policy):
                if isinstance(act, Push):
                    stack2 = (act.frame,) + stack
                    if len(stack2) > max_depth:
                        truncated = True
                        continue
                elif isinstance(act, Pop):
                    stack2 = stack[1:]
                else:
                    stack2 = stack
                if not stack2:
                    pairs.add((q1, q2))
                cfg2 = (q2, stack2)
                if cfg2 not in seen:
                    if len(seen) >= max_configs:
                        truncated = True
                        continue
                    seen.add(cfg2)
                    work.append(cfg2)
    return pairs, truncated


def epsilon_closure(edges) -> set:
    """Every (q1, q2) joined by a path of one or more epsilon edges of
    edges, by a plain search from each source."""
    succs: dict = {}
    for s1, act, s2 in edges:
        if act == EPSILON:
            succs.setdefault(s1, set()).add(s2)
    pairs = set()
    for q1 in succs:
        seen: set = set()
        work = list(succs[q1])
        while work:
            q = work.pop()
            if q not in seen:
                seen.add(q)
                work.extend(succs.get(q, ()))
        pairs.update((q1, q2) for q2 in seen)
    return pairs


def update_psf(s, top_frames: dict, psf: dict, push_preds: dict,
               eps_pred: dict, pushed_objs: dict | None = None) -> set:
    """The stack summary spec: PSF(s) holds the root pointers of its
    own top frames, every root pointer possibly on the stack at any
    predecessor, push source or epsilon predecessor alike, and
    pushed_objs[s], the object pointers held by the own frames of the
    nodes that pushed a call frame to s."""
    out = call_fps(top_frames.get(s, ()))
    out |= psf.get(s, set())
    out |= (pushed_objs or {}).get(s, set())
    for p in push_preds.get(s, set()) | eps_pred.get(s, set()):
        out |= psf.get(p, set())
    return out


def least_psf(nodes, top_frames: dict, push_preds: dict,
              eps_pred: dict, pushed_objs: dict | None = None) -> dict:
    """The least solution of update_psf over nodes, by plain round-robin
    iteration from empty summaries."""
    psf: dict = {}
    changed = True
    while changed:
        changed = False
        for s in nodes:
            new = update_psf(s, top_frames, psf, push_preds, eps_pred,
                             pushed_objs)
            if new != psf.get(s, set()):
                psf[s] = new
                changed = True
    return psf


def brute_reachable_addrs(sigma: dict, roots) -> set:
    """Transitive closure of address reachability, the slow way: scan the
    whole domain for addresses hung off each value's object pointer."""
    dom = set(sigma)
    seen = {a for a in roots if a in dom}
    frontier = list(seen)
    while frontier:
        addr = frontier.pop()
        for val in sigma.get(addr, ()):
            for cand in dom:
                if cand.ptr == val.op and cand not in seen:
                    seen.add(cand)
                    frontier.append(cand)
    return seen


# -- abstract GC from scratch ----------------------------------------------------
#
# The specification of anfj.gc: roots, closure and restriction computed
# anew from the whole store, as one collection with no history.

def index_by_ptr(sigma: dict) -> dict:
    """Pointer -> the store's addresses on it."""
    by_ptr: dict = {}
    for addr in sigma:
        by_ptr.setdefault(addr.ptr, []).append(addr)
    return by_ptr


def call_fps(frames) -> set:
    """The stack's root pointers: the frame pointers of the call frames
    among frames. Handler frames and the empty-stack marker own no
    bindings."""
    return {f.fp for f in frames if isinstance(f, CallFrame)}


def stack_root(fps, sigma: dict) -> set:
    """Variable addresses on any of the stack's root pointers fps."""
    by_ptr = index_by_ptr(sigma)
    out = set()
    for fp in fps:
        out.update(by_ptr.get(fp, ()))
    return out


def root(q: ControlState, sigma: dict, fps, lp, policy: Policy) -> set:
    """The current activation's variables (the live ones and the
    receiver when liveness pruning is on) plus the bindings on the
    stack's root pointers fps."""
    own = index_by_ptr(sigma).get(q.fp, ())
    if policy.liveness:
        live = lp.lives.get(q.stmt.label, frozenset())
        own = [a for a in own if a.base in live or a.base == THIS]
    return stack_root(fps, sigma).union(own)


def reachable(roots: set, sigma: dict) -> set:
    """Closure of roots under the store's points-to edges: an address
    reaches every field address of every object it may denote."""
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


def collect(q: ControlState, sigma: dict, fps, lp, policy: Policy) -> dict:
    """sigma restricted to what q can still touch under a stack whose
    root pointers are fps; sigma when gc is off."""
    if not policy.gc:
        return sigma
    keep = reachable(root(q, sigma, fps, lp, policy), sigma)
    return {a: vals for a, vals in sigma.items() if a in keep}


# -- the reference fixpoint -------------------------------------------------------
#
# The analysis's specification: both stack abstractions as a naive
# round-robin iteration. Every round steps every node in full under
# every context, collecting its store from scratch, and then recomputes
# the stack bookkeeping from the whole edge set; it stops after a round
# that changed nothing. No worklist, no memo, no deltas.
#
# In pushdown mode a node's store holds its own frame and the heap, not
# the frames beneath it: a push or pop edge into another activation
# carries only the heap and that activation's frame, and every epsilon
# edge, summaries included, carries at least its source's own frame.
# The collection's stack roots are the call frames' pointers plus the
# objects the frames beneath hold. The result holds these stepped
# stores and each node's push sources; frames_beneath rebuilds the
# visible stores from its edges.

def own_frame(sigma: dict, fp) -> dict:
    """The bindings of sigma on the frame pointer fp."""
    return {a: vals for a, vals in sigma.items() if a.ptr == fp}


def heap_and_frame(sigma: dict, fp) -> dict:
    """The bindings of sigma on object pointers and on fp."""
    return {a: vals for a, vals in sigma.items()
            if a.ptr == fp or isinstance(a.ptr, ObjPtr)}


def reference_analysis(lp, policy: Policy) -> DSG:
    """The least fixpoint the engine must reach, as a DSG holding the
    nodes, edges, full and stepped stores, push sources and
    diagnostics."""
    q0 = inject_abstract(lp)
    nodes = {q0}
    edges: set = set()
    full = {q0: {}}
    pushdown = policy.mode == "pushdown"
    tf, psf, pfp, beneath = {q0: {BOTTOM}}, {q0: {BOTTOM}}, {}, {}
    table = {_level(lp, q0): {BOTTOM}}
    while True:
        changed = False
        visible: dict = {}
        diags: set = set()
        for q in sorted(nodes, key=state_key):
            if pushdown:
                fps = call_fps(psf.get(q, ())) | beneath.get(q, set())
            else:
                fps = finite_stack_fps(lp, table, q)
            sigma = visible[q] = collect(q, full[q], fps, lp, policy)
            found: list = []
            if pushdown:
                succs = []
                for kappa in sorted(tf.get(q, ()), key=frame_key):
                    top = None if kappa is BOTTOM else kappa
                    succs += abstract_next(lp, q, sigma, top, policy, found)
            else:
                succs, grew = _finite_successors(lp, policy, q, sigma,
                                                 table, found)
                changed |= grew
            diags.update((p.stmt.label, reason) for p, reason in found)
            for q2, act, sg2 in succs:
                if q2 not in nodes:
                    nodes.add(q2)
                    full[q2] = {}
                    changed = True
                if pushdown and q2.fp != q.fp:
                    sg2 = heap_and_frame(sg2, q2.fp)
                joined = store_join(full[q2], sg2)
                if joined is not full[q2]:
                    full[q2] = joined
                    changed = True
                if (q, act, q2) not in edges:
                    edges.add((q, act, q2))
                    changed = True
        if pushdown:
            closed, tf2, psf2, pfp = _stack_closure(q0, edges)
            for w, act, s2 in closed:
                if act == EPSILON:
                    own = own_frame(visible.get(w, {}), w.fp)
                    joined = store_join(full[s2], own)
                    if joined is not full[s2]:
                        full[s2] = joined
                        changed = True
            beneath2 = _objects_beneath(closed, visible)
            changed |= (closed != edges or tf2 != tf or psf2 != psf
                        or beneath2 != beneath)
            edges, tf, psf, beneath = closed, tf2, psf2, beneath2
        if not changed:
            break
    dsg = DSG(lp=lp, policy=policy, initial=q0)
    dsg.nodes, dsg.edges = nodes, edges
    dsg.full_stores = full
    dsg.node_stores = visible
    dsg.sources = flat_sources(pfp)
    dsg.diagnostics = diags
    return dsg


def _objects_beneath(edges: set, visible: dict) -> dict:
    """Per node: the object pointers bound in the frames beneath it.
    A call push puts its source's own frame beneath its target, and
    push and epsilon edges carry what is beneath their source."""
    below: dict = {}
    changed = True
    while changed:
        changed = False
        for s1, act, s2 in edges:
            if isinstance(act, Pop):
                continue
            add = set(below.get(s1, ()))
            if isinstance(act, Push) and isinstance(act.frame, CallFrame):
                add |= {v.op for vals in own_frame(
                    visible.get(s1, {}), s1.fp).values() for v in vals}
            have = below.setdefault(s2, set())
            if not add <= have:
                have |= add
                changed = True
    return below


def with_frames_beneath(stepped: dict, tf: dict, pfp: dict) -> dict:
    """Each node's store plus every binding, on a frame pointer other
    than its own, of the stores of the push sources of its top frames,
    by plain round-robin iteration to the least solution."""
    vis = dict(stepped)
    changed = True
    while changed:
        changed = False
        for s in sorted(stepped, key=state_key):
            for f in tf.get(s, ()):
                for w in pfp.get((s, f), ()):
                    below = {a: vals for a, vals in vis[w].items()
                             if isinstance(a.ptr, FramePtr) and a.ptr != s.fp}
                    joined = store_join(vis[s], below)
                    if joined is not vis[s]:
                        vis[s] = joined
                        changed = True
    return vis


def flat_sources(pfp: dict) -> dict:
    """Node -> the frozenset of its push sources over all its top
    frames, for the nodes that have any."""
    out: dict = {}
    for (s, _), ws in pfp.items():
        if ws:
            out[s] = out.get(s, frozenset()) | ws
    return out


def frames_beneath(dsg: DSG) -> tuple:
    """(push sources, visible stores) of a graph, rebuilt from its edges
    and stepped stores alone: the top frames and push sources of
    _stack_closure over the edges, and with_frames_beneath over
    those."""
    _, tf, _, pfp = _stack_closure(dsg.initial, dsg.edges)
    return flat_sources(pfp), with_frames_beneath(dsg.node_stores, tf, pfp)


def _stack_closure(q0, edges: set):
    """The edges plus every summary edge they imply, with each node's
    top frames, possible stack frames and push sources (pfp: (node,
    frame) -> sources), by plain iteration: a push
    edge puts its frame on top and records its source as a pusher; an
    epsilon edge passes top frames and pushers on; a pop edge of a frame
    yields a summary edge from each of its pushers; stack frames hold
    the top frames and flow along push and epsilon edges."""
    edges = set(edges)
    tf = {q0: {BOTTOM}}
    psf: dict = {}
    pfp: dict = {}

    def grow(d, key, vals) -> bool:
        have = d.setdefault(key, set())
        n = len(have)
        have |= vals
        return len(have) != n

    changed = True
    while changed:
        changed = False
        for s1, act, s2 in sorted(edges, key=lambda e: state_key(e[0])):
            if isinstance(act, Pop):
                for w in list(pfp.get((s1, act.frame), ())):
                    if (w, EPSILON, s2) not in edges:
                        edges.add((w, EPSILON, s2))
                        changed = True
                continue
            if isinstance(act, Push):
                changed |= grow(tf, s2, {act.frame})
                changed |= grow(pfp, (s2, act.frame), {s1})
            else:
                for f in list(tf.get(s1, ())):
                    changed |= grow(tf, s2, {f})
                    changed |= grow(pfp, (s2, f), pfp.get((s1, f), set()))
            changed |= grow(psf, s2, psf.get(s1, set()))
        for s, frames in tf.items():
            changed |= grow(psf, s, frames)
    return edges, tf, psf, pfp


def _level(lp, q: ControlState):
    """The finite table's key of q's activation: its method and frame
    pointer."""
    return lp.method_of[q.stmt.label], q.fp


def finite_stack_fps(lp, table: dict, q: ControlState) -> set:
    """The finite table's stand-in for q's stack roots: the pointers of
    the call records at every level q's activation can return through."""
    return {e.fp for lv in _levels_from(lp, table, _level(lp, q))
            for e in table.get(lv, ()) if isinstance(e, CallFrame)}


def _levels_from(lp, table: dict, level) -> set:
    """level plus every level reachable through call records."""
    seen = {level}
    frontier = [level]
    while frontier:
        for e in table.get(frontier.pop(), ()):
            if isinstance(e, CallFrame):
                nxt = _level(lp, ControlState(e.target, e.fp, ()))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def _finite_successors(lp, policy: Policy, q: ControlState, sigma: dict,
                       table: dict, diags: list):
    """q's (state, epsilon, store) successors under the finite table,
    and whether stepping q recorded anything new in the table. A return
    flows to every call record of its level, a throw to every matching
    handler record of a level it can reach; other rules are
    domain.next's, with each push recorded in the table instead."""
    s = q.stmt
    out = []
    if isinstance(s, (Return, Throw)):
        vals = sigma.get(Addr(s.var, q.fp))
        if not vals:
            diags.append((q, f"unbound read of {s.var!r}"))
            return out, False
        if isinstance(s, Return):
            for e in table.get(_level(lp, q), ()):
                if isinstance(e, CallFrame):
                    out.append((ControlState(e.target, e.fp, q.time), EPSILON,
                                store_join(sigma, {Addr(e.var, e.fp): vals})))
            return out, False
        for lv in _levels_from(lp, table, _level(lp, q)):
            for h in table.get(lv, ()):
                if not isinstance(h, HandlerFrame):
                    continue
                for v in vals:
                    if lp.subtype(v.class_name, h.class_name):
                        out.append((ControlState(h.target, h.fp, q.time),
                                    EPSILON, store_join(
                                        sigma, {Addr(h.var, h.fp):
                                                frozenset((v,))})))
        return out, False
    if isinstance(s, PopHandler):
        nxt = lp.succ_map.get(s.label)
        if nxt is not None:
            out.append((ControlState(nxt, q.fp, q.time), EPSILON, sigma))
        return out, False
    grew = False
    for q2, act, sg2 in abstract_next(lp, q, sigma, None, policy, diags):
        if isinstance(act, Push):
            owner = q2 if isinstance(act.frame, CallFrame) else q
            have = table.setdefault(_level(lp, owner), set())
            grew |= act.frame not in have
            have.add(act.frame)
        out.append((q2, EPSILON, sg2))
    return out, grew


def store_leq(a: dict, b: dict) -> bool:
    """a is below b in the store order: every binding of a is in b."""
    return all(addr in b and vals <= b[addr] for addr, vals in a.items())


# -- readers of every entry -----------------------------------------------------
#
# The store readers as they were when every store was a plain dict: each
# reads every entry of every store it is given. The shared-base readers
# (metrics.points_to_union, export._store_deltas) must agree with them
# on plain dict copies of the same stores.

def points_to_union(dsg: DSG) -> dict:
    """Addr -> the union of its value sets over every node store."""
    union: dict = {}
    for n in dsg.nodes:
        for a, vals in dict(dsg.node_stores.get(n, {})).items():
            have = union.get(a)
            union[a] = vals if have is None else have | vals
    return union


def store_deltas(dsg: DSG, nodes: list, stores: list) -> list:
    """export._store_deltas over plain dict stores: per node of nodes,
    in that order, with its store at the same index of stores, (the
    index of its base or None, the entries that differ from what the
    base passes on, the addresses the base passes on that the node does
    not bind), each candidate base's store diffed entry by entry. The
    candidates are a node's predecessors one breadth-first level above
    it (bfs_levels)."""
    level = bfs_levels(dsg)
    ids = {q: i for i, q in enumerate(nodes)}
    candidates: list = [set() for _ in nodes]
    for s1, _act, s2 in dsg.edges:
        if s1 in level and level.get(s2) == level[s1] + 1:
            candidates[ids[s2]].add(ids[s1])
    out = []
    for q, sigma, bases in zip(nodes, stores, candidates):
        best, size = (None, sigma, ()), len(sigma)
        for b in sorted(bases) if sigma else ():
            passed = stores[b]
            if dsg.policy.mode == "pushdown" and nodes[b].fp != q.fp:
                passed = heap_and_frame(passed, q.fp)
            delta = {a: vals for a, vals in sigma.items()
                     if passed.get(a) != vals}
            drop = [a for a in passed if a not in sigma]
            if len(delta) + len(drop) < size:
                best, size = (b, delta, drop), len(delta) + len(drop)
        out.append(best)
    return out


# -- the JSON export's reader ---------------------------------------------------
#
# The specification of anfj.export's JSON form: rebuilding a graph from
# it and exporting that again must give the same bytes.

def ptr_from_json(data):
    tag = data[0]
    if tag == "fp":
        return FramePtr(data[1], tuple(data[2]))
    if tag == "op":
        return ObjPtr(data[1], tuple(data[2]), data[3])
    raise ValueError(f"unknown pointer tag {tag!r}")


def value_from_json(data) -> Value:
    return Value(data[0], ptr_from_json(data[1]))


def addr_from_json(data) -> Addr:
    return Addr(data[0], ptr_from_json(data[1]))


def store_from_json(data, seen: dict) -> dict:
    """One node's store. seen, shared by the stores of one document,
    maps the text of each address and value list already read to what
    it was read as: neighbouring stores repeat them, so each is read
    once and shared, as the engine shares them."""
    out = {}
    for a, vals in data:
        ka, kv = repr(a), repr(vals)
        if ka not in seen:
            seen[ka] = addr_from_json(a)
        if kv not in seen:
            seen[kv] = frozenset(value_from_json(v) for v in vals)
        out[seen[ka]] = seen[kv]
    return out


def frame_from_json(lp, data):
    tag = data[0]
    if tag == "call":
        return CallFrame(data[1], lp.stmt(data[2]), ptr_from_json(data[3]))
    if tag == "handle":
        return HandlerFrame(data[1], data[2], lp.stmt(data[3]),
                            ptr_from_json(data[4]))
    raise ValueError(f"unknown frame tag {tag!r}")


def action_from_json(lp, data):
    tag = data[0]
    if tag == "eps":
        return EPSILON
    if tag == "push":
        return Push(frame_from_json(lp, data[1]))
    if tag == "pop":
        return Pop(frame_from_json(lp, data[1]))
    raise ValueError(f"unknown action tag {tag!r}")


def policy_from_json(data) -> Policy:
    return Policy(k=data["k"], obj_sensitivity=data["objSensitivity"],
                  gc=data["gc"], liveness=data["liveness"],
                  mode=data["mode"])


def dsg_from_json(lp, data) -> DSG:
    """Rebuild the structural graph (nodes, edges, stepped stores, push
    sources, diagnostics) from exported JSON. Worklist internals start
    empty; frames_beneath rebuilds the visible stores, and the push
    sources the edges imply."""
    if data.get("format") != FORMAT_NAME:
        raise ValueError("not a state-graph document")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"state-graph format version {data.get('version')!r}, "
                         f"not {FORMAT_VERSION}")
    policy = policy_from_json(data["policy"])
    objs = {obj["id"]: obj for obj in data["nodes"]}
    states = {i: ControlState(lp.stmt(obj["label"]), ptr_from_json(obj["fp"]),
                              tuple(obj["time"]))
              for i, obj in objs.items()}
    stores = stepped_stores_from_json(objs, states, policy)
    dsg = DSG(lp=lp, policy=policy, initial=states[data["initial"]])
    dsg.nodes = set(states.values())
    dsg.edges = {(states[i], action_from_json(lp, act), states[j])
                 for i, act, j in data["edges"]}
    dsg.node_stores = {states[i]: sigma for i, sigma in stores.items()}
    dsg.sources = {states[i]: frozenset(states[j] for j in obj["sources"])
                   for i, obj in objs.items() if obj["sources"]}
    dsg.diagnostics = {(lbl, reason)
                       for lbl, reason in data.get("diagnostics", ())}
    return dsg


def bfs_levels(dsg: DSG) -> dict:
    """Node -> the fewest edges on a path to it from the initial node."""
    succ: dict = {}
    for s1, _act, s2 in dsg.edges:
        succ.setdefault(s1, set()).add(s2)
    level = {dsg.initial: 0}
    queue = deque([dsg.initial])
    while queue:
        s = queue.popleft()
        for s2 in succ.get(s, ()):
            if s2 not in level:
                level[s2] = level[s] + 1
                queue.append(s2)
    return level


def stepped_stores_from_json(objs: dict, states: dict, policy: Policy) -> dict:
    """Node id -> its stepped store, each rebuilt from its base's: what
    the base passes on (its whole store, or only its heap and the node's
    own frame when the base is a pushdown node of another frame), less
    the node's "drop", with its "store" written over. A base chain can
    be as long as the graph is deep, so each is walked up with a list,
    not by recursion, and then rebuilt downwards."""
    pushdown = policy.mode == "pushdown"
    stores: dict = {}
    seen: dict = {}
    for i in objs:
        chain = []
        while i is not None and i not in stores:
            if len(chain) > len(objs):
                raise ValueError("the node bases form a cycle")
            chain.append(i)
            i = objs[i]["base"]
        for j in reversed(chain):
            obj, base = objs[j], objs[j]["base"]
            sigma = {} if base is None else stores[base]
            if (pushdown and base is not None
                    and states[base].fp != states[j].fp):
                sigma = heap_and_frame(sigma, states[j].fp)
            sigma = dict(sigma)
            for a in obj["drop"]:
                del sigma[addr_from_json(a)]
            sigma.update(store_from_json(obj["store"], seen))
            stores[j] = sigma
    return stores


def reference_tokens(src: str) -> list[tuple[str, str, int, int]]:
    """The source as (kind, text, line, column) tokens, one character
    at a time: kind is "ident", "punct" or "eof", the last token. Space,
    tab and CR are one column each; a "//" comment runs to the end of
    its line, and a character that starts no token is a ParseError.

    Where it differs from the parser's tokenizer: the comment loop does
    not advance the column, so an end of input that follows a comment
    on the last line takes the comment's first column."""
    toks = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "/" and i + 1 < n and src[i + 1] == "/":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c in "{}();,=.":
            toks.append(("punct", c, line, col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks
