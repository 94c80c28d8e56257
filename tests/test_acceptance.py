"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single verdict line
(run with -s to see them on success). Tolerances are pinned as module
constants; every numeric expectation is exact.
"""

import random
import time

from anfj.domain import (
    BOTTOM, EPSILON, FP0A, ControlState, Policy, Pop,
)
from anfj.engine import Budget, analyze
from anfj.export import export_dsg
from anfj.gc import eagc
from anfj.machine import Addr, run
from anfj.metrics import metric_ec_links, points_to_union
from anfj.syntax import Assign, Invoke, PopHandler, Return, Throw, TryCatch

from helpers import corpus_names, corpus_program
from oracles import (
    brute_reachable_addrs, call_fps, explore_configs, net_empty_pairs,
)
from test_gc import _random_cyclic_store
from test_machine import EXPECTED, FUEL
from test_soundness import replay_violations

OUTCOME_TIME_LIMIT = 1.0     # seconds, criterion 1
PRECISION_TIME_LIMIT = 1.0   # seconds, criterion 4
MIN_ORACLE_PROGRAMS = 20     # criterion 1
REPLAY_KS = (0, 1)           # criteria 2 and 7
MAX_STACK_DEPTH = 8          # criterion 3 explorer bound
MAX_CONFIGS = 50_000         # criterion 3 size cutoff
MIN_ORACLE_QUALIFIERS = 20   # criterion 3 must not degenerate
N_RANDOM_STORES = 1_000      # criterion 9
STORE_SEED = 2026            # criterion 9


def _verdict(n, slug, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {n} ({slug}): FAIL")
        raise
    print(f"ACCEPTANCE {n} ({slug}): PASS")


# -- 1: concrete outcomes ---------------------------------------------------------

def test_criterion_1_concrete_oracle_suite():
    def check():
        assert len(EXPECTED) >= MIN_ORACLE_PROGRAMS
        coverage = {"throw_across_call", "return_over_handler",
                    "try_complete", "nested_complete",
                    "throw_unmatched_nested", "ctor_chain"}
        assert coverage <= set(EXPECTED)
        t0 = time.perf_counter()
        for name, (kind, cls) in sorted(EXPECTED.items()):
            outcome, _ = run(corpus_program(name), fuel=FUEL)
            assert isinstance(outcome, kind), name
            if cls is not None:
                assert outcome.value.class_name == cls, name
        assert time.perf_counter() - t0 < OUTCOME_TIME_LIMIT
    _verdict(1, "concrete outcomes", check)


# -- 2: per-step soundness, collection off ------------------------------------------

def test_criterion_2_per_step_soundness():
    def check():
        for name in sorted(corpus_names()):
            lp = corpus_program(name)
            for k in REPLAY_KS:
                bad = replay_violations(
                    lp, Policy(k=k, gc=False, liveness=False))
                assert bad == [], (name, k, bad[:3])
    _verdict(2, "per-step soundness", check)


# -- 3: summary edges against the bounded-stack explorer ----------------------------

def test_criterion_3_summary_oracle_equivalence():
    def check():
        qualified = 0
        for name in sorted(corpus_names()):
            lp = corpus_program(name)
            policy = Policy(gc=False)
            dsg = analyze(lp, policy)
            g = explore_configs(lp, policy, max_depth=MAX_STACK_DEPTH,
                                max_configs=MAX_CONFIGS,
                                stores=dsg.node_store)
            if g.truncated:
                continue
            qualified += 1
            assert g.states() <= dsg.nodes, name
            pairs, truncated = net_empty_pairs(lp, policy, dsg.nodes,
                                               dsg.node_store)
            assert not truncated, name
            engine_pairs = {(s, s2)
                            for s, succs in dsg.iecg.eps_succ.items()
                            for s2 in succs}
            assert engine_pairs == pairs, name
            for q, tops in g.top_frames().items():
                assert tops <= dsg.iecg.tf(q), name
            for q, frames in g.stack_frames().items():
                assert call_fps(frames) <= dsg.iecg.psf.get(q, set()), name
        assert qualified >= MIN_ORACLE_QUALIFIERS
    _verdict(3, "summary oracle equivalence", check)


# -- 4: handler-scope precision ------------------------------------------------------

def test_criterion_4_handler_scope_precision():
    def check():
        t0 = time.perf_counter()
        direct = corpus_program("handler_scope_direct")
        pd, _ = metric_ec_links(analyze(direct, Policy(k=0)))
        fin, _ = metric_ec_links(analyze(direct, Policy(k=0, mode="finite")))
        assert len(pd) == 1 and len(fin) == 2 and pd < fin

        wrapped = corpus_program("handler_scope_wrapped")
        pdw, _ = metric_ec_links(analyze(wrapped, Policy(k=0)))
        finw, _ = metric_ec_links(analyze(wrapped,
                                          Policy(k=1, mode="finite")))
        assert len(pdw) == 1 and len(finw) == 2 and pdw < finw
        assert time.perf_counter() - t0 < PRECISION_TIME_LIMIT
    _verdict(4, "handler-scope precision", check)


# -- 5: characteristic graph shapes ---------------------------------------------------

def test_criterion_5_graph_shape_suite():
    def check():
        # (a) completed try: a summary edge jumps the try straight to the
        # statement after it
        lp = corpus_program("try_complete")
        dsg = analyze(lp, Policy(k=0))
        try_q = next(q for q in dsg.nodes if isinstance(q.stmt, TryCatch))
        pop_h = next(s for l in lp.all_labels()
                     for s in [lp.stmt(l)] if isinstance(s, PopHandler))
        after = lp.successor(pop_h.label)
        assert any(s1 == try_q and act is EPSILON
                   and s2.stmt.label == after.label
                   for s1, act, s2 in dsg.edges)

        # (b) caught throw: the summary edge lands on the handler head
        lp = corpus_program("try_catch_local")
        dsg = analyze(lp, Policy(k=0))
        try_q = next(q for q in dsg.nodes if isinstance(q.stmt, TryCatch))
        assert any(s1 == try_q and act is EPSILON
                   and s2.stmt.label in lp.handler_heads
                   for s1, act, s2 in dsg.edges)

        # (c) throw unwinding a call frame pops in place
        lp = corpus_program("throw_across_call")
        dsg = analyze(lp, Policy(k=0))
        assert any(isinstance(s1.stmt, Throw) and s1 == s2
                   and isinstance(act, Pop)
                   for s1, act, s2 in dsg.edges)

        # (d) return sliding over a live handler frame pops in place
        lp = corpus_program("return_over_handler")
        dsg = analyze(lp, Policy(k=0))
        assert any(isinstance(s1.stmt, Return) and s1 == s2
                   and isinstance(act, Pop)
                   for s1, act, s2 in dsg.edges)

        # (e) uncaught throw is terminal with an empty-stack marker
        lp = corpus_program("uncaught")
        dsg = analyze(lp, Policy(k=0))
        throw_q = next(q for q in dsg.nodes if isinstance(q.stmt, Throw))
        assert not any(s1 == throw_q for s1, _, _ in dsg.edges)
        assert BOTTOM in dsg.iecg.tf(throw_q)
    _verdict(5, "graph shape suite", check)


# -- 6: collection precision ----------------------------------------------------------

def test_criterion_6_gc_precision():
    def check():
        lp = corpus_program("reuse_of_locals")
        union_on = points_to_union(analyze(lp, Policy(k=0)))
        for base in ("a1", "a2", "b1", "b2"):
            sizes = [len(v) for a, v in union_on.items() if a.base == base]
            assert sizes and all(s == 1 for s in sizes), (base, sizes)
        union_off = points_to_union(
            analyze(lp, Policy(k=0, gc=False, liveness=False)))
        joined = [len(v) for a, v in union_off.items()
                  if a.base in ("a1", "a2", "b1", "b2")]
        assert any(s >= 2 for s in joined)

        lp = corpus_program("dead_before_call")
        call = next(s for l in lp.all_labels()
                    for s in [lp.stmt(l)]
                    if isinstance(s, Assign) and isinstance(s.exp, Invoke)
                    and s.var == "r")

        def store_at_call(policy):
            dsg = analyze(lp, policy)
            [q] = [n for n in dsg.nodes if n.stmt.label == call.label]
            return dsg.node_store(q), q

        on, q = store_at_call(Policy(k=0))
        off, _ = store_at_call(Policy(k=0, liveness=False))
        assert Addr("b", q.fp) not in on
        assert not any(a.base == "item" for a in on)
        assert Addr("b", q.fp) in off
        assert any(a.base == "item" for a in off)
        assert Addr("p", q.fp) in on and Addr("p", q.fp) in off
    _verdict(6, "gc precision", check)


# -- 7: soundness unchanged with collection on ------------------------------------------

def test_criterion_7_gc_preserves_soundness():
    def check():
        for name in sorted(corpus_names()):
            lp = corpus_program(name)
            for k in REPLAY_KS:
                bad = replay_violations(lp, Policy(k=k))
                assert bad == [], (name, k, bad[:3])
    _verdict(7, "gc preserves soundness", check)


# -- 8: termination and determinism --------------------------------------------------

def test_criterion_8_termination_and_determinism():
    def check():
        for name in sorted(corpus_names()):
            lp = corpus_program(name)
            first = analyze(lp, Policy(k=0), Budget())
            second = analyze(lp, Policy(k=0), Budget())
            assert export_dsg(first, "json") == export_dsg(second, "json")
            assert export_dsg(first, "dot") == export_dsg(second, "dot")
    _verdict(8, "termination and determinism", check)


# -- 9: reachability closure against brute force ----------------------------------------

def test_criterion_9_reachable_set_oracle():
    # the collector keeps exactly the brute-force closure of its roots:
    # the activation's variables (liveness off) and those on the
    # stack's root pointers
    lp = corpus_program("minimal")
    stmt = lp.first_stmt(lp.entry_method)
    policy = Policy(liveness=False)

    def check():
        rng = random.Random(STORE_SEED)
        for _ in range(N_RANDOM_STORES):
            sigma = _random_cyclic_store(rng)
            fps = sorted({a.ptr for a in sigma if a.base.startswith("v")},
                         key=str) or [FP0A]
            q = ControlState(stmt, rng.choice(fps), ())
            stack = {fp for fp in fps if rng.random() < 0.5}
            roots = {a for a in sigma if a.ptr == q.fp or a.ptr in stack}
            assert set(eagc(q, sigma, stack, lp, policy)) == \
                brute_reachable_addrs(sigma, roots)
    _verdict(9, "reachable-set oracle", check)
