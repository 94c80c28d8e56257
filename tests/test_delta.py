"""Delta propagation: the engine re-steps a (node, context) pair only
when a store read of its last step changed, and collects incrementally.

The result must be the least fixpoint all the same: it is compared
with the naive round-robin reference in oracles.py, each incremental
collection with a from-scratch one, and the step counts with their
purpose, full steps that stay flat as call chains grow.
"""

import random

import pytest

from anfj import engine as engine_module
from anfj import finite as finite_module
from anfj.domain import Policy
from anfj.engine import _PushdownEngine, analyze
from anfj.finite import _FiniteEngine
from anfj.syntax import load_program

from helpers import CHAINS, corpus_names, gen_module, named_program
from oracles import collect, finite_stack_frames, reference_analysis
from test_byte_identity import POLICIES, analysis_digest

MODES = ("pushdown", "finite")


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS))
def test_engine_equals_reference_fixpoint(name):
    lp = named_program(name)
    for policy in POLICIES:
        assert analysis_digest(analyze(lp, policy)) == \
            analysis_digest(reference_analysis(lp, policy)), policy


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [0, 1])
def test_engine_equals_reference_with_obj_sens_and_without_liveness(mode, k):
    lp = named_program("receiver_split")
    for policy in (Policy(k=k, mode=mode, obj_sensitivity=True),
                   Policy(k=k, mode=mode, liveness=False)):
        assert analysis_digest(analyze(lp, policy)) == \
            analysis_digest(reference_analysis(lp, policy)), policy


SPY_POLICIES = [Policy(k=k, mode=mode, liveness=live, obj_sensitivity=obj)
                for mode in MODES for k in (0, 1)
                for live, obj in ((True, False), (False, False), (True, True))]


@pytest.mark.parametrize("name", ["receiver_split", "throw_across_call",
                                  "deep_throw", "field_kept_alive",
                                  "handler_rethrow", "chain7"])
def test_incremental_collection_equals_from_scratch(name, monkeypatch):
    # contexts() runs once per dequeue, right after the collection
    lp = named_program(name)
    seen = []
    stacks = {_PushdownEngine: lambda eng, s: eng.iecg.psf.get(s, ()),
              _FiniteEngine: lambda eng, s: finite_stack_frames(
                  eng.lp, eng.table, s)}
    for cls, stack in stacks.items():
        def contexts(self, s, orig=cls.contexts, stack=stack):
            full = self.dsg.full_stores.get(s, {})
            want = collect(s, full, stack(self, s), self.lp, self.policy)
            assert self.dsg.node_stores[s] == want, s
            seen.append(s)
            return orig(self, s)
        monkeypatch.setattr(cls, "contexts", contexts)
    for policy in SPY_POLICIES:
        seen.clear()
        dsg = analyze(lp, policy)
        assert len(seen) == dsg.stats["steps"], policy


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [8, 16, 32])
def test_full_steps_per_node_stay_flat(n, mode):
    gen = gen_module()
    lp = load_program(gen.chain_program(n, random.Random(1)).source)
    stats = analyze(lp, Policy(mode=mode)).stats
    assert stats["full_steps"] <= 2 * stats["nodes"], stats


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("gc", [True, False], ids=["gc", "nogc"])
def test_only_full_steps_call_next(mode, gc, monkeypatch):
    # a delta pass calls no transition function; in pushdown mode every
    # full step is one call, in finite mode returns, throws and handler
    # pops are stepped by the table instead
    module = engine_module if mode == "pushdown" else finite_module
    calls = []
    orig = module.abstract_next

    def counting(*args, **kwargs):
        calls.append(args[1])
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, "abstract_next", counting)
    stats = analyze(named_program("chain10"), Policy(mode=mode, gc=gc)).stats
    assert stats["delta_passes"] > 0 and stats["delta_addrs"] > 0
    if mode == "pushdown":
        assert len(calls) == stats["full_steps"]
    else:
        assert len(calls) <= stats["full_steps"]
    assert stats["full_steps"] + stats["delta_passes"] >= stats["steps"]
