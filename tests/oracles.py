"""Independent reference computations for the analysis tests.

These deliberately avoid the engine's summarization machinery: configs
carry explicit frame stacks, reachability is a plain worklist closure,
and everything is small and slow. Tests compare the fast implementations
against these on programs where exhaustive exploration fits in memory.
"""

from collections import deque
from dataclasses import dataclass

from anfj.domain import (
    BOTTOM, Policy, Pop, Push, frame_key, inject_abstract,
    next as abstract_next, state_key, store_join,
)


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
