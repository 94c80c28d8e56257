"""Serialization of decorated state graphs: canonical JSON and DOT.

Both formats are deterministic: nodes are sorted by (label, frame
pointer, time), edges by (source, action, destination), store entries
by address then value. Exporting the same graph twice yields identical
bytes. The internal worklist bookkeeping is not serialized. This module
only writes; the reader, which rebuilds a graph from the JSON form given
the same program, is a specification in the tests (tests/oracles.py).

A JSON node holds its stepped store ("store") and the sorted ids of its
push sources ("sources", empty in the finite baseline). Its visible
store, the stepped one plus the frames beneath it, is not written: it
is engine.visible_stores over those two members, which a reader can
also rebuild from the edges alone (the push sources are pfp flattened
over frames).

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
    CallFrame, ControlState, Epsilon, FramePtr, HandlerFrame,
    ObjPtr, Policy, Pop, Push, action_key, addr_key, frame_key, state_key,
    sorted_values,
)
from .engine import DSG
from .machine import Addr, Value

FORMAT_NAME = "anfj-dsg"
FORMAT_VERSION = 3


# -- JSON pieces --------------------------------------------------------------

def ptr_to_json(ptr):
    if isinstance(ptr, FramePtr):
        return ["fp", ptr.site, list(ptr.time)]
    if isinstance(ptr, ObjPtr):
        return ["op", ptr.site, list(ptr.time), ptr.recv]
    raise TypeError(f"not a pointer: {ptr!r}")


def value_to_json(v: Value):
    return [v.class_name, ptr_to_json(v.op)]


def addr_to_json(a: Addr):
    return [a.base, ptr_to_json(a.ptr)]


def frame_to_json(f):
    if isinstance(f, CallFrame):
        return ["call", f.var, f.target.label, ptr_to_json(f.fp)]
    if isinstance(f, HandlerFrame):
        return ["handle", f.class_name, f.var, f.target.label,
                ptr_to_json(f.fp)]
    raise TypeError(f"not a frame: {f!r}")


def action_to_json(act):
    if isinstance(act, Epsilon):
        return ["eps"]
    if isinstance(act, Push):
        return ["push", frame_to_json(act.frame)]
    if isinstance(act, Pop):
        return ["pop", frame_to_json(act.frame)]
    raise TypeError(f"not a stack action: {act!r}")


def policy_to_json(p: Policy) -> dict:
    return {"k": p.k, "objSensitivity": p.obj_sensitivity, "gc": p.gc,
            "liveness": p.liveness, "mode": p.mode}


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
    stores = [dsg.node_stores.get(q, {}) for q in nodes]
    render_store = _store_renderer(stores)

    def node_text(i: int, q: ControlState) -> str:
        sources = sorted(ids[w] for w in dsg.sources.get(q, ()))
        return _object({"fp": _dumps(ptr_to_json(q.fp)), "id": str(i),
                        "label": _dumps(q.stmt.label),
                        "sources": _dumps(sources),
                        "store": render_store(stores[i]),
                        "time": _dumps(list(q.time))})

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
    return _object(out)


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
