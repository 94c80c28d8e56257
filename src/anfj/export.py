"""Serialization of decorated state graphs: canonical JSON and DOT.

Both formats are deterministic: nodes are sorted by (label, frame
pointer, time), edges by (source, action, destination), store entries
by address then value. The node and edge order is sorted once per graph
(DSG.order) and shared by both formats. Exporting the same graph twice
yields identical bytes. The internal worklist bookkeeping is not serialized. This module
only writes; the reader, which rebuilds a graph from the JSON form given
the same program, is a specification in the tests (tests/oracles.py).

A JSON node (format 4) writes its stepped store as a delta over a base
node, after Johnson, Labich, Might & Van Horn ("Optimizing Abstract
Abstract Machines", ICFP 2013): "base" names that node's id or is null,
"store" holds the entries that differ from what the base passes on, and
"drop" the addresses the base passes on that the node does not bind. A
base passes on its whole stepped store in finite mode and when it has
the node's frame pointer; otherwise it passes on what a push or pop edge
carries, engine.heap_and_frame: the heap and the node's own frame. The
candidates are the node's edge predecessors one breadth-first level
nearer to the initial node, over every edge, so the bases form a tree
and a reader rebuilds each store from its base's. The candidate with
the fewest written entries wins, the lowest id on a tie, and the store
is written in full with a null base when that is no larger. The choice
reads only the graph and compares stores and value sets by ==, so no
worklist or hash order reaches it. Each node also writes the sorted ids
of its push sources ("sources", empty in the finite baseline). Its
visible store, the stepped one plus the frames beneath it, is not
written: a reader rebuilds it from the stepped stores and the edges
alone, as tests/oracles.py does (the push sources are those of the
node's closure records, over all its top frames).

The JSON text is what json.dumps(..., sort_keys=True, separators=(",",
":")) gives for the whole document, but it is spliced together from
fragments rather than dumped from one nested object. One export renders
each distinct address, value set, frame pointer, time, push-source set
and object key once: the written addresses are sorted by addr_key once,
each store's entries are ordered by that integer rank, and the other
texts are memoized on their value (_Memo), as the DOT export memoizes
its pointer labels. Every fragment comes from the encoder
json.dumps uses with those settings, so string escaping is json's own;
the splicing only adds brackets, commas and object keys, and one
routine (_object) orders every object's keys as sort_keys does.
"""

from __future__ import annotations

import json

from .domain import (
    CallFrame, ControlState, Epsilon, FramePtr, HandlerFrame,
    ObjPtr, Policy, Pop, Push, addr_key, sorted_values,
)
from .engine import DSG, heap_and_frame
from .machine import EMPTY, Addr, Store, Value

FORMAT_NAME = "anfj-dsg"
FORMAT_VERSION = 4


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


class _Memo(dict):
    """The text of each distinct value, rendered on its first lookup:
    memo[value]. One export keeps one per kind of value."""

    __slots__ = ("render",)

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, value):
        text = self[value] = self.render(value)
        return text


# an object key's JSON text and its colon; the keys are this module's
# own literals
_key_text = _Memo(lambda key: _dumps(key) + ":")


def _object(members: dict) -> str:
    """A JSON object from already-rendered member texts, keys in the
    order sort_keys gives them. The texts are joined once, not copied
    into per-member strings first: the node list is most of the
    document."""
    pieces = []
    for key, text in sorted(members.items()):
        pieces += (",", _key_text[key], text)
    pieces[0] = "{"
    pieces.append("}")
    return "".join(pieces)


def _levels(initial: int, edges: list, n: int) -> list:
    """Each of the n node ids' breadth-first distance from initial over
    the (source id, target id) edges; None where initial does not reach."""
    succ: list = [[] for _ in range(n)]
    for i, j in edges:
        succ[i].append(j)
    level = [None] * n
    level[initial] = 0
    frontier = [initial]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for i in frontier:
            for j in succ[i]:
                if level[j] is None:
                    level[j] = depth
                    nxt.append(j)
        frontier = nxt
    return level


def _store_deltas(policy: Policy, nodes: list, stores: list, initial: int,
                  edges: list) -> list:
    """Per node, in id order, what format 4 writes for its stepped store:
    (base id or None, the entries that differ from what the base passes
    on, the addresses the base passes on that the node does not bind).
    nodes and stores (Stores) are in id order, initial and the (source,
    target) edges are ids. See the module docstring for the rule. A node
    and a base whose stores share a base dict are compared over their
    two deltas only (Store.diff)."""
    level = _levels(initial, edges, len(nodes))
    candidates: list = [set() for _ in nodes]
    for i, j in edges:
        if level[i] is not None and level[j] == level[i] + 1:
            candidates[j].add(i)
    pushdown = policy.mode == "pushdown"
    out = []
    for q, sigma, bases in zip(nodes, stores, candidates):
        best, size = (None, sigma, ()), len(sigma)
        if not sigma:                  # no base can write less
            out.append(best)
            continue
        for b in sorted(bases):
            passed = stores[b]
            if pushdown and nodes[b].fp != q.fp:
                passed = heap_and_frame(passed, q.fp)
            delta, drop = sigma.diff(passed)
            if len(delta) + len(drop) < size:
                best, size = (b, delta, drop), len(delta) + len(drop)
        out.append(best)
    return out


def _renderers(written: list) -> tuple:
    """Functions rendering an entry list (Addr -> value set) and an
    address list as JSON text, sorted, for the stores and drops of
    `written`. Each distinct address is ranked and rendered once; each
    distinct value set is rendered on first use."""
    addrs = set()
    for _, sigma, drop in written:
        addrs.update(sigma, drop)
    addrs = sorted(addrs, key=addr_key)
    rank = {a: i for i, a in enumerate(addrs)}
    addr_text = {a: _dumps(addr_to_json(a)) for a in addrs}
    vals_text = _Memo(lambda vals: _dumps(
        [value_to_json(v) for v in sorted_values(vals)]))

    def render_store(sigma: dict) -> str:
        if not sigma:
            return "[]"
        return "[" + ",".join(
            "[" + addr_text[a] + "," + vals_text[sigma[a]] + "]"
            for a in sorted(sigma, key=rank.__getitem__)) + "]"

    def render_addrs(drop) -> str:
        if not drop:
            return "[]"
        return "[" + ",".join(addr_text[a] for a in
                              sorted(drop, key=rank.__getitem__)) + "]"

    return render_store, render_addrs


def dsg_to_json(dsg: DSG) -> str:
    """The graph as canonical JSON text (no trailing newline), stable
    under re-export."""
    nodes, ids, edges = dsg.order()
    written = _store_deltas(dsg.policy, nodes,
                            [Store.of(dsg.node_stores.get(q, EMPTY))
                             for q in nodes],
                            ids[dsg.initial], [(i, j) for (i, _, j), _ in edges])
    render_store, render_addrs = _renderers(written)
    fp_text = _Memo(lambda fp: _dumps(ptr_to_json(fp)))
    time_text = _Memo(lambda time: _dumps(list(time)))
    sources_text = _Memo(lambda ws: _dumps(sorted(ids[w] for w in ws)))

    def node_text(i: int, q: ControlState) -> str:
        base, sigma, drop = written[i]
        return _object({"base": "null" if base is None else str(base),
                        "drop": render_addrs(drop),
                        "fp": fp_text[q.fp], "id": str(i),
                        "label": str(q.stmt.label),
                        "sources": sources_text[dsg.sources.get(q, ())],
                        "store": render_store(sigma),
                        "time": time_text[q.time]})

    out = {
        "format": _dumps(FORMAT_NAME),
        "version": _dumps(FORMAT_VERSION),
        "policy": _dumps(policy_to_json(dsg.policy)),
        "initial": str(ids[dsg.initial]),
        "nodes": "[" + ",".join(node_text(i, q)
                                for i, q in enumerate(nodes)) + "]",
        "edges": _dumps([[i, action_to_json(act), j]
                         for (i, _, j), act in edges]),
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


def dsg_to_dot(dsg: DSG) -> str:
    nodes, ids, edges = dsg.order()
    ptr_label = _Memo(_ptr_label)

    def frame_label(f) -> str:
        if isinstance(f, CallFrame):
            return f"call {f.var}<-L{f.target.label} {ptr_label[f.fp]}"
        return (f"handle {f.class_name} {f.var}->L{f.target.label} "
                f"{ptr_label[f.fp]}")

    lines = ["digraph dsg {", "  rankdir=LR;", "  node [shape=box];"]
    for i, q in enumerate(nodes):
        kind = type(q.stmt).__name__.lower()
        label = f"L{q.stmt.label} {kind}\\n{ptr_label[q.fp]}"
        extra = " penwidth=2" if q == dsg.initial else ""
        lines.append(f'  n{i} [label="{label}"{extra}];')
    for (i, _, j), act in edges:
        if isinstance(act, Epsilon):
            attr = 'style=dashed label=""'
        elif isinstance(act, Push):
            attr = f'label="g+ {frame_label(act.frame)}"'
        else:
            attr = f'label="g- {frame_label(act.frame)}"'
        lines.append(f"  n{i} -> n{j} [{attr}];")
    lines.append("}")
    return "\n".join(lines) + "\n"



def export_dsg(dsg: DSG, format: str = "json") -> bytes:
    """Render the graph to bytes in the named format ('json' or 'dot')."""
    if format == "json":
        return dsg_to_json(dsg).encode("utf-8") + b"\n"
    if format == "dot":
        return dsg_to_dot(dsg).encode("utf-8")
    raise ValueError(f"unknown export format {format!r}")
