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


def update_psf(s, top_frames: dict, psf: dict, nep: dict,
               eps_pred: dict) -> set:
    """The stack summary spec: PSF(s) holds its own top frames plus
    everything possibly on the stack at any predecessor, push source
    (nep) or epsilon predecessor alike."""
    out = set(top_frames.get(s, ()))
    out |= psf.get(s, set())
    for p in nep.get(s, set()) | eps_pred.get(s, set()):
        out |= psf.get(p, set())
    return out


def least_psf(nodes, top_frames: dict, nep: dict, eps_pred: dict) -> dict:
    """The least solution of update_psf over nodes, by plain round-robin
    iteration from empty summaries."""
    psf: dict = {}
    changed = True
    while changed:
        changed = False
        for s in nodes:
            new = update_psf(s, top_frames, psf, nep, eps_pred)
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
