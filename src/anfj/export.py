"""Serialization of decorated state graphs: canonical JSON and DOT.

Both formats are deterministic: nodes are sorted by (label, frame
pointer, time), edges by (source, action, destination), store entries
by address then value. Exporting the same graph twice yields identical
bytes. The JSON form round-trips through dsg_from_json given the same
program; the internal worklist bookkeeping is not serialized.

The JSON text is what json.dumps(..., sort_keys=True, separators=(",",
":")) gives for the whole document, but it is spliced together from
fragments rather than dumped from one nested object. Neighbouring node
stores mostly hold the same addresses bound to the same (shared) value
sets, so one export renders each distinct address and each distinct
value set once: the addresses of all stores are sorted by addr_key
once, each store's entries are ordered by that integer rank, and the
value-set text is memoized on the frozenset. Every fragment comes from
the encoder json.dumps uses with those settings, so string escaping is
json's own; the splicing only adds brackets, commas and object keys,
and one routine (_object) orders every object's keys as sort_keys
does.
"""

from __future__ import annotations

import json

from .domain import (
    CallFrame, ControlState, Epsilon, EPSILON, FramePtr, HandlerFrame,
    ObjPtr, Policy, Pop, Push, action_key, addr_key, frame_key, state_key,
    sorted_values,
)
from .engine import DSG
from .machine import Addr, Value
from .syntax import LabeledProgram

FORMAT_NAME = "anfj-dsg"
FORMAT_VERSION = 1


# -- JSON pieces --------------------------------------------------------------

def ptr_to_json(ptr):
    if isinstance(ptr, FramePtr):
        return ["fp", ptr.site, list(ptr.time)]
    if isinstance(ptr, ObjPtr):
        return ["op", ptr.site, list(ptr.time), ptr.recv]
    raise TypeError(f"not a pointer: {ptr!r}")


def ptr_from_json(data):
    tag = data[0]
    if tag == "fp":
        return FramePtr(data[1], tuple(data[2]))
    if tag == "op":
        return ObjPtr(data[1], tuple(data[2]), data[3])
    raise ValueError(f"unknown pointer tag {tag!r}")


def value_to_json(v: Value):
    return [v.class_name, ptr_to_json(v.op)]


def value_from_json(data) -> Value:
    return Value(data[0], ptr_from_json(data[1]))


def addr_to_json(a: Addr):
    return [a.base, ptr_to_json(a.ptr)]


def addr_from_json(data) -> Addr:
    return Addr(data[0], ptr_from_json(data[1]))


def store_from_json(data) -> dict:
    return {addr_from_json(a): frozenset(value_from_json(v) for v in vals)
            for a, vals in data}


def frame_to_json(f):
    if isinstance(f, CallFrame):
        return ["call", f.var, f.target.label, ptr_to_json(f.fp)]
    if isinstance(f, HandlerFrame):
        return ["handle", f.class_name, f.var, f.target.label,
                ptr_to_json(f.fp)]
    raise TypeError(f"not a frame: {f!r}")


def frame_from_json(lp: LabeledProgram, data):
    tag = data[0]
    if tag == "call":
        return CallFrame(data[1], lp.stmt(data[2]), ptr_from_json(data[3]))
    if tag == "handle":
        return HandlerFrame(data[1], data[2], lp.stmt(data[3]),
                            ptr_from_json(data[4]))
    raise ValueError(f"unknown frame tag {tag!r}")


def action_to_json(act):
    if isinstance(act, Epsilon):
        return ["eps"]
    if isinstance(act, Push):
        return ["push", frame_to_json(act.frame)]
    if isinstance(act, Pop):
        return ["pop", frame_to_json(act.frame)]
    raise TypeError(f"not a stack action: {act!r}")


def action_from_json(lp: LabeledProgram, data):
    tag = data[0]
    if tag == "eps":
        return EPSILON
    if tag == "push":
        return Push(frame_from_json(lp, data[1]))
    if tag == "pop":
        return Pop(frame_from_json(lp, data[1]))
    raise ValueError(f"unknown action tag {tag!r}")


def policy_to_json(p: Policy) -> dict:
    return {"k": p.k, "objSensitivity": p.obj_sensitivity, "gc": p.gc,
            "liveness": p.liveness, "mode": p.mode,
            "storeMode": p.store_mode}


def policy_from_json(data) -> Policy:
    return Policy(k=data["k"], obj_sensitivity=data["objSensitivity"],
                  gc=data["gc"], liveness=data["liveness"],
                  mode=data["mode"], store_mode=data["storeMode"])


# -- whole graphs -------------------------------------------------------------

# json.dumps(data, sort_keys=True, separators=(",", ":")) without
# building a new encoder on every call
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _object(members: dict) -> str:
    """A JSON object from already-rendered member texts, keys in the
    order sort_keys gives them. The texts are joined once, not copied
    into per-member strings first: the node list is most of the
    document."""
    pieces = []
    for key, text in sorted(members.items()):
        pieces += (",", _dumps(key), ":", text)
    pieces[0] = "{"
    pieces.append("}")
    return "".join(pieces)


def _store_renderer(stores: list):
    """A function rendering any one of `stores` (Addr -> value set) as
    the JSON text of its sorted entry list. Each distinct address is
    ranked and rendered once; each distinct value set is rendered on
    first use."""
    addrs = sorted(set().union(*stores), key=addr_key)
    rank = {a: i for i, a in enumerate(addrs)}
    entry_head = {a: "[" + _dumps(addr_to_json(a)) + "," for a in addrs}
    vals_text: dict = {}

    def render(sigma: dict) -> str:
        parts = []
        for a in sorted(sigma, key=rank.__getitem__):
            vals = sigma[a]
            text = vals_text.get(vals)
            if text is None:
                text = vals_text[vals] = _dumps(
                    [value_to_json(v) for v in sorted_values(vals)])
            parts.append(entry_head[a] + text + "]")
        return "[" + ",".join(parts) + "]"

    return render


def dsg_to_json(dsg: DSG) -> str:
    """The graph as canonical JSON text (no trailing newline), stable
    under re-export."""
    nodes = sorted(dsg.nodes, key=state_key)
    ids = {q: i for i, q in enumerate(nodes)}
    per_node = dsg.policy.store_mode != "global"
    if per_node:
        stores = [dsg.node_stores.get(q, {}) for q in nodes]
    else:
        stores = [dsg.global_store]
    render_store = _store_renderer(stores)

    def node_text(i: int, q: ControlState) -> str:
        members = {"fp": _dumps(ptr_to_json(q.fp)), "id": str(i),
                   "label": _dumps(q.stmt.label),
                   "time": _dumps(list(q.time))}
        if per_node:
            members["store"] = render_store(stores[i])
        return _object(members)

    edges = sorted(dsg.edges,
                   key=lambda e: (ids[e[0]], action_key(e[1]), ids[e[2]]))
    out = {
        "format": _dumps(FORMAT_NAME),
        "version": _dumps(FORMAT_VERSION),
        "policy": _dumps(policy_to_json(dsg.policy)),
        "initial": str(ids[dsg.initial]),
        "nodes": "[" + ",".join(node_text(i, q)
                                for i, q in enumerate(nodes)) + "]",
        "edges": _dumps([[ids[s1], action_to_json(act), ids[s2]]
                         for s1, act, s2 in edges]),
        "diagnostics": _dumps(sorted([lbl, reason]
                                     for lbl, reason in dsg.diagnostics)),
    }
    if not per_node:
        out["globalStore"] = render_store(dsg.global_store)
    return _object(out)


def dsg_from_json(lp: LabeledProgram, data) -> DSG:
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
        if "store" in obj:
            stores[q] = store_from_json(obj["store"])
    dsg = DSG(lp=lp, policy=policy, initial=states[data["initial"]])
    dsg.nodes = set(states.values())
    dsg.edges = {(states[i], action_from_json(lp, act), states[j])
                 for i, act, j in data["edges"]}
    dsg.node_stores = stores
    dsg.diagnostics = {(lbl, reason)
                       for lbl, reason in data.get("diagnostics", ())}
    if "globalStore" in data:
        dsg.global_store = store_from_json(data["globalStore"])
    return dsg


def _ptr_label(ptr) -> str:
    t = ",".join(str(x) for x in ptr.time)
    if isinstance(ptr, FramePtr):
        site = "entry" if ptr.site is None else ptr.site
        return f"fp({site};{t})"
    recv = "" if ptr.recv is None else f";r{ptr.recv}"
    return f"op({ptr.site};{t}{recv})"


def _frame_label(f) -> str:
    if isinstance(f, CallFrame):
        return f"call {f.var}<-L{f.target.label} {_ptr_label(f.fp)}"
    return f"handle {f.class_name} {f.var}->L{f.target.label} {_ptr_label(f.fp)}"


def dsg_to_dot(dsg: DSG) -> str:
    nodes = sorted(dsg.nodes, key=state_key)
    ids = {q: i for i, q in enumerate(nodes)}
    lines = ["digraph dsg {", "  rankdir=LR;", "  node [shape=box];"]
    for i, q in enumerate(nodes):
        kind = type(q.stmt).__name__.lower()
        label = f"L{q.stmt.label} {kind}\\n{_ptr_label(q.fp)}"
        extra = " penwidth=2" if q == dsg.initial else ""
        lines.append(f'  n{i} [label="{label}"{extra}];')
    edges = sorted(dsg.edges,
                   key=lambda e: (ids[e[0]], action_key(e[1]), ids[e[2]]))
    for s1, act, s2 in edges:
        if isinstance(act, Epsilon):
            attr = 'style=dashed label=""'
        elif isinstance(act, Push):
            attr = f'label="g+ {_frame_label(act.frame)}"'
        else:
            attr = f'label="g- {_frame_label(act.frame)}"'
        lines.append(f"  n{ids[s1]} -> n{ids[s2]} [{attr}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dsg(dsg: DSG, format: str = "json") -> bytes:
    """Render the graph to bytes in the named format ('json' or 'dot')."""
    if format == "json":
        return dsg_to_json(dsg).encode("utf-8") + b"\n"
    if format == "dot":
        return dsg_to_dot(dsg).encode("utf-8")
    raise ValueError(f"unknown export format {format!r}")
