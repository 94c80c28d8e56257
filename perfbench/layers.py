"""Per-layer timing for a traced benchmark pass.

Spans are taken from outside the program: each public function a layer
offers is replaced, in the module that looks it up, by a wrapper that
times the call. A span's self time is its length minus the time its
child spans took, so the self times of all spans inside one CLI call
add up to that call's length. The wrappers' own bookkeeping after a
call ends is charged to neither parent nor child but to `overhead_s`.

Nothing is kept per span: a pass makes millions of store joins, so the
tracer sums self time, calls and counters as it goes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack: list = []               # per open span: child seconds
        self.self_s: dict = defaultdict(float)   # (op kind, span) -> s
        self.total_s: dict = defaultdict(float)  # span -> inclusive s
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.per_program: dict = {}         # (program, span) -> stats
        self.kind = ""                      # kind of the CLI op running
        self.program = ""
        self.overhead_s = 0.0
        self._patches: list = []

    def wrap(self, module, attr: str, name, after=None) -> None:
        """Replace module.attr by a timed wrapper. name is a span name or
        a function of the call's arguments; after(span, args, result)
        updates counters once the span has ended."""
        orig = getattr(module, attr)
        stack = self.stack

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            span = name(args) if callable(name) else name
            self.self_s[self.kind, span] += (t1 - t0) - child[0]
            self.total_s[span] += t1 - t0
            self.calls[span] += 1
            if after is not None:
                after(span, args, result)
            t2 = perf_counter()
            if stack:
                stack[-1][0] += t2 - t0
            self.overhead_s += t2 - t1
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def remove(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def layer_self(self, prefix: str, kind: str | None = None) -> float:
        """Self seconds of every span whose name starts with prefix,
        within ops of one kind or of all kinds."""
        return sum(v for (k, span), v in self.self_s.items()
                   if span.startswith(prefix) and (kind is None or k == kind))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers find them."""
    from anfj import cli, engine, export, finite, metrics
    from anfj.domain import Epsilon
    from anfj.syntax import Assign, Invoke, TryCatch

    count = tracer.counts

    def calls_or_try(stmt) -> bool:
        return isinstance(stmt, TryCatch) or (
            isinstance(stmt, Assign) and isinstance(stmt.exp, Invoke))

    def after_analyze(span, args, dsg):
        layer = span.split(".")[0]
        steps, nodes = dsg.stats["steps"], len(dsg.nodes)
        count[layer + ".steps"] += steps
        count[layer + ".nodes"] += nodes
        tracer.per_program[tracer.program, layer] = (steps, nodes)
        if layer != "engine":
            return
        count["engine.edges"] += len(dsg.edges)
        count["engine.summary_edges"] += sum(
            1 for s1, act, _ in dsg.edges
            if isinstance(act, Epsilon) and calls_or_try(s1.stmt))
        count["engine.full_store_addrs"] += sum(
            len(dsg.full_stores.get(n, ())) for n in dsg.nodes)
        count["engine.visible_store_addrs"] += sum(
            len(dsg.node_stores.get(n, ())) for n in dsg.nodes)

    def after_eagc(span, args, kept):
        count["gc.addrs_in"] += len(args[1])
        count["gc.addrs_kept"] += len(kept)

    def after_join(span, args, joined):
        if joined != args[0]:
            count["domain.store_join_grew"] += 1

    def after_export(span, args, data):
        count["export.bytes"] += len(data)

    def after_run(span, args, result):
        count["machine.states"] += len(result[1])

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(cli, "load_program", "syntax.load")
    tracer.wrap(cli, "analyze",
                lambda a: ("finite.analyze" if a[1].mode == "finite"
                           else "engine.analyze"), after_analyze)
    tracer.wrap(cli, "run", "machine.run", after_run)
    tracer.wrap(export, "export_dsg", lambda a: f"export.{a[1]}", after_export)
    tracer.wrap(metrics, "report", "metrics.report")
    for mod in (engine, finite):
        tracer.wrap(mod, "eagc", "gc.eagc", after_eagc)
        tracer.wrap(mod, "abstract_next", "domain.next")
        tracer.wrap(mod, "store_join", "domain.store_join", after_join)
    for fn in ("propagate", "process_push", "process_pop"):
        tracer.wrap(engine, fn, "engine.closure")
