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
from anfj.export import FORMAT_NAME
from anfj.machine import Addr, Value
from anfj.syntax import THIS, PopHandler, Return, Throw


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


def update_psf(s, top_frames: dict, psf: dict, push_preds: dict,
               eps_pred: dict) -> set:
    """The stack summary spec: PSF(s) holds the root pointers of its
    own top frames plus every root pointer possibly on the stack at any
    predecessor, push source or epsilon predecessor alike."""
    out = call_fps(top_frames.get(s, ()))
    out |= psf.get(s, set())
    for p in push_preds.get(s, set()) | eps_pred.get(s, set()):
        out |= psf.get(p, set())
    return out


def least_psf(nodes, top_frames: dict, push_preds: dict,
              eps_pred: dict) -> dict:
    """The least solution of update_psf over nodes, by plain round-robin
    iteration from empty summaries."""
    psf: dict = {}
    changed = True
    while changed:
        changed = False
        for s in nodes:
            new = update_psf(s, top_frames, psf, push_preds, eps_pred)
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

def reference_analysis(lp, policy: Policy) -> DSG:
    """The least fixpoint the engine must reach, as a DSG holding the
    nodes, edges, full and visible stores and diagnostics."""
    q0 = inject_abstract(lp)
    nodes = {q0}
    edges: set = set()
    full = {q0: {}}
    pushdown = policy.mode == "pushdown"
    tf, psf = {q0: {BOTTOM}}, {q0: {BOTTOM}}
    table = {_level(lp, q0): {BOTTOM}}
    while True:
        changed = False
        visible: dict = {}
        diags: set = set()
        for q in sorted(nodes, key=state_key):
            if pushdown:
                fps = call_fps(psf.get(q, ()))
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
                joined = store_join(full[q2], sg2)
                if joined is not full[q2]:
                    full[q2] = joined
                    changed = True
                if (q, act, q2) not in edges:
                    edges.add((q, act, q2))
                    changed = True
        if pushdown:
            closed, tf2, psf2 = _stack_closure(q0, edges)
            changed |= closed != edges or tf2 != tf or psf2 != psf
            edges, tf, psf = closed, tf2, psf2
        if not changed:
            break
    dsg = DSG(lp=lp, policy=policy, initial=q0)
    dsg.nodes, dsg.edges = nodes, edges
    dsg.full_stores, dsg.node_stores = full, visible
    dsg.diagnostics = diags
    return dsg


def _stack_closure(q0, edges: set):
    """The edges plus every summary edge they imply, with each node's
    top frames and possible stack frames, by plain iteration: a push
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
    return edges, tf, psf


def _level(lp, q: ControlState):
    """The finite table's key of q's activation: its method and frame
    pointer."""
    m = lp.method_of_label(q.stmt.label)
    return ((m.owner, m.name), q.fp)


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


def store_from_json(data) -> dict:
    return {addr_from_json(a): frozenset(value_from_json(v) for v in vals)
            for a, vals in data}


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
    """Rebuild the structural graph (nodes, edges, stores, diagnostics)
    from exported JSON. Worklist internals start empty."""
    if data.get("format") != FORMAT_NAME:
        raise ValueError("not a state-graph document")
    policy = policy_from_json(data["policy"])
    states = {}
    stores = {}
    for obj in data["nodes"]:
        q = ControlState(lp.stmt(obj["label"]),
                         ptr_from_json(obj["fp"]), tuple(obj["time"]))
        states[obj["id"]] = q
        stores[q] = store_from_json(obj["store"])
    dsg = DSG(lp=lp, policy=policy, initial=states[data["initial"]])
    dsg.nodes = set(states.values())
    dsg.edges = {(states[i], action_from_json(lp, act), states[j])
                 for i, act, j in data["edges"]}
    dsg.node_stores = stores
    dsg.diagnostics = {(lbl, reason)
                       for lbl, reason in data.get("diagnostics", ())}
    return dsg
