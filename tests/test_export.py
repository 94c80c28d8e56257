"""Canonical JSON and DOT serialization of analysis graphs."""

import json
from collections import Counter

import pytest

import oracles
from anfj.domain import EPSILON, FramePtr, ObjPtr, Policy, addr_key, state_key
from anfj.engine import analyze
from anfj.export import _store_deltas, dsg_to_dot, export_dsg, ptr_to_json
from anfj.machine import Store
from anfj.metrics import points_to_union
from anfj.syntax import TryCatch, load_program

from helpers import CHAINS, FANIN, corpus_names, corpus_program, named_program
from oracles import (
    action_from_json, bfs_levels, dsg_from_json, frame_from_json,
    frames_beneath, ptr_from_json,
)
from test_byte_identity import POLICIES

SINGLE_NODE = """
// the graph cannot leave the entry statement: x is never bound
class Main extends Object {
  Main() { super(); }
  Object main() {
    Object x;
    return x;
  }
}
"""


def test_smallest_graph_renders_one_dot_node():
    dsg = analyze(load_program(SINGLE_NODE), Policy(k=0))
    dot = dsg_to_dot(dsg)
    node_lines = [l for l in dot.splitlines() if "[label=" in l]
    assert len(node_lines) == 1
    assert "penwidth=2" in node_lines[0]  # it is also the initial node
    assert "->" not in dot


def test_try_catch_dot_shows_dashed_skip_edge():
    dsg = analyze(corpus_program("try_complete"), Policy(k=0))
    dot = dsg_to_dot(dsg)
    assert "style=dashed" in dot
    assert "g+ handle" in dot and "g- handle" in dot
    # the summary edge out of the try head is drawn dashed
    try_q = next(q for q in dsg.nodes if isinstance(q.stmt, TryCatch))
    spans = [(s1, s2) for s1, act, s2 in dsg.edges
             if s1 == try_q and act is EPSILON]
    assert spans
    for s1, s2 in spans:
        assert not isinstance(s2.stmt, TryCatch)


def test_dot_is_deterministic_across_runs():
    lp = corpus_program("deep_throw")
    a = export_dsg(analyze(lp, Policy(k=1)), "dot")
    b = export_dsg(analyze(lp, Policy(k=1)), "dot")
    assert a == b


@pytest.mark.parametrize("name,policy", [
    ("try_complete", Policy(k=0)),
    ("deep_throw", Policy(k=1)),
    ("receiver_split", Policy(k=1, obj_sensitivity=True)),
    ("handler_scope_direct", Policy(k=0, mode="finite")),
    ("mutual_recursion", Policy(k=0, gc=False, liveness=False)),
    ("field_kept_alive", Policy(k=1, gc=False)),
])
def test_json_round_trip(name, policy):
    lp = corpus_program(name)
    dsg = analyze(lp, policy)
    if name == "field_kept_alive":
        # the export renders a value set once however many stores share
        # it, and the reader shares it again
        uses = Counter(id(vals) for store in dsg.node_stores.values()
                       for vals in store.values())
        assert max(uses.values()) > 1
    blob = export_dsg(dsg, "json")
    back = dsg_from_json(lp, json.loads(blob))
    assert back.nodes == dsg.nodes
    assert back.edges == dsg.edges
    assert back.node_stores == dsg.node_stores
    assert back.sources == dsg.sources
    assert back.diagnostics == dsg.diagnostics
    assert back.initial == dsg.initial
    assert back.policy == policy
    assert export_dsg(back, "json") == blob


@pytest.mark.parametrize("name", corpus_names())
def test_json_export_is_canonical_json(name):
    # the export is spliced from fragments; it must still be exactly
    # what one json.dumps of the whole document gives
    lp = corpus_program(name)
    for policy in (Policy(k=0), Policy(k=1, gc=False)):
        out = export_dsg(analyze(lp, policy), "json")
        canon = json.dumps(json.loads(out), sort_keys=True,
                           separators=(",", ":"))
        assert out == canon.encode("utf-8") + b"\n"


def test_json_is_byte_identical_across_runs():
    lp = corpus_program("nested_complete")
    a = export_dsg(analyze(lp, Policy(k=0)), "json")
    b = export_dsg(analyze(lp, Policy(k=0)), "json")
    assert a == b
    assert a.endswith(b"\n")


def test_node_ids_are_dense_and_ordered():
    dsg = analyze(corpus_program("var_chain"), Policy(k=0))
    doc = json.loads(export_dsg(dsg, "json"))
    assert [n["id"] for n in doc["nodes"]] == list(range(len(doc["nodes"])))
    assert doc["format"] == "anfj-dsg" and doc["version"] == 4
    assert 0 <= doc["initial"] < len(doc["nodes"])
    for n in doc["nodes"]:
        assert n["sources"] == sorted(set(n["sources"]))
        assert all(0 <= i < len(doc["nodes"]) for i in n["sources"])
        assert n["base"] is None or 0 <= n["base"] < len(doc["nodes"])


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS) + [FANIN])
def test_rebuilt_visible_stores_equal_node_store(name):
    # the export holds each stepped store as a delta over a base node,
    # and push sources; a reader rebuilds the stepped stores along the
    # bases, and the push sources (with the visible stores) from the
    # edges alone, without the engine: the stores are the engine's, the
    # sources those written, and the rebuilt graph exports the same bytes
    lp = named_program(name)
    for policy in POLICIES:
        dsg = analyze(lp, policy)
        blob = export_dsg(dsg, "json")
        doc = json.loads(blob)
        back = dsg_from_json(lp, doc)
        assert back.node_stores == dsg.node_stores, policy
        assert export_dsg(back, "json") == blob, policy
        # each base is an edge predecessor one breadth-first level
        # nearer to the initial node, so the bases form a tree
        states = {n["id"]: q for n, q in
                  zip(doc["nodes"], sorted(back.nodes, key=state_key))}
        level = bfs_levels(back)
        preds = {(s1, s2) for s1, _act, s2 in back.edges}
        for n in doc["nodes"]:
            if n["base"] is not None:
                b, q = states[n["base"]], states[n["id"]]
                assert (b, q) in preds, policy
                assert level[b] == level[q] - 1, policy
        sources, _ = frames_beneath(back)
        assert sources == back.sources == dsg.sources, policy


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS) + [FANIN])
def test_shared_store_readers_equal_the_dict_readers(name):
    # the points-to union and the export's store deltas read only the
    # deltas of stores that share a base; on plain dict copies of the
    # same stores, the readers of every entry give the same results
    lp = named_program(name)
    for policy in POLICIES:
        dsg = analyze(lp, policy)
        assert points_to_union(dsg) == oracles.points_to_union(dsg), policy
        nodes, ids, edges = dsg.order()
        pairs = [(i, j) for (i, _, j), _ in edges]
        stores = [dsg.node_stores[q] for q in nodes]
        assert all(type(sigma) is Store for sigma in stores), policy
        got = _store_deltas(policy, nodes, stores, ids[dsg.initial], pairs)
        want = oracles.store_deltas(dsg, nodes,
                                    [dict(sigma) for sigma in stores])
        assert len(got) == len(want) == len(nodes), policy
        for (b1, d1, x1), (b2, d2, x2) in zip(got, want):
            assert b1 == b2, policy
            assert dict(d1.items()) == d2, policy
            assert sorted(x1, key=addr_key) == sorted(x2, key=addr_key)


def test_object_pointer_receiver_survives_round_trip():
    p = ObjPtr(4, (9,), 7)
    assert ptr_from_json(ptr_to_json(p)) == p
    q = FramePtr(3, (1, 2))
    assert ptr_from_json(ptr_to_json(q)) == q


def test_unknown_export_format_rejected():
    dsg = analyze(corpus_program("minimal"), Policy(k=0))
    with pytest.raises(ValueError):
        export_dsg(dsg, "yaml")


def test_malformed_documents_rejected():
    lp = corpus_program("minimal")
    with pytest.raises(ValueError):
        dsg_from_json(lp, {"format": "something-else"})
    with pytest.raises(ValueError):
        dsg_from_json(lp, {"format": "anfj-dsg", "version": 3})
    doc = json.loads(export_dsg(analyze(lp, Policy(k=0)), "json"))
    doc["nodes"][0]["base"] = doc["nodes"][0]["id"]
    with pytest.raises(ValueError):
        dsg_from_json(lp, doc)
    with pytest.raises(ValueError):
        ptr_from_json(["zz", 1, []])
    with pytest.raises(ValueError):
        action_from_json(lp, ["jump"])
    with pytest.raises(ValueError):
        frame_from_json(lp, ["frame?", "x", 1, ["fp", None, []]])
