"""Precision metrics over a finished analysis.

Averaging population, documented here and in every report header: each
address's value set is unioned across all node stores first, addresses
with empty unions never enter a population, and an empty population is
reported as n/a rather than 0. Exception-role classes are the classes
observed flowing into some throw statement in this very graph; there is
no built-in throwable hierarchy to consult.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .engine import DSG, analyze, Budget, BudgetExceeded
from .machine import EMPTY, Addr, Store
from .syntax import Throw


class SideBudgetExceeded(Exception):
    """A compare run blew its budget; remembers which side did."""

    def __init__(self, side: str, exc: BudgetExceeded):
        super().__init__(f"side {side}: {exc}")
        self.side = side
        self.exc = exc

POPULATION_NOTE = (
    "averages over per-address unions across node stores; "
    "empty populations reported as n/a")


def points_to_union(dsg: DSG) -> dict:
    """Addr -> union of its value sets across every node store.

    It reads the stepped stores: what a visible store adds, the frames
    beneath its node, are bindings of its push sources' stepped stores,
    so the union is the same without building any visible store. Node
    stores share their bases, so it reads each distinct base once and
    each store's delta (Store.union_layers), and they share their
    value-set objects, so most sets met are the union so far or a
    subset of it; those skip building a new set."""
    union: dict = {}
    stores = dsg.node_stores
    for layer in Store.union_layers(stores.get(n, EMPTY)
                                     for n in dsg.nodes):
        for a, vals in layer.items():
            have = union.get(a)
            if have is None:
                union[a] = vals
            elif vals is not have and not vals <= have:
                union[a] = have | vals
    return union


def thrown_classes(dsg: DSG) -> set:
    """Classes of values a throw statement may actually throw. The
    thrown variable is on the throw's own frame, which its stepped store
    holds."""
    out = set()
    for n in dsg.nodes:
        if isinstance(n.stmt, Throw):
            vals = dsg.node_stores.get(n, EMPTY).get(Addr(n.stmt.var, n.fp), ())
            out.update(v.class_name for v in vals)
    return out


def _role_means(union: dict, exc: set) -> tuple:
    """(VarPointsTo, Throws): the mean size of the unions holding at
    least one class outside exc, and of those holding at least one
    class in exc, each None when no union qualifies. One pass; the
    sizes are summed as integers, so each mean is the same float as
    the mean of the list of sizes."""
    var_sum = var_n = thr_sum = thr_n = 0
    for vals in union.values():
        size, hits = len(vals), 0
        for v in vals:
            if v.class_name in exc:
                hits += 1
        if hits < size:
            var_sum += size
            var_n += 1
        if hits:
            thr_sum += size
            thr_n += 1
    return (var_sum / var_n if var_n else None,
            thr_sum / thr_n if thr_n else None)


def metric_ec_links(dsg: DSG) -> tuple:
    """(links, average): every (throw label, handler-head label) pair
    connected by an edge, and links per linked throw site."""
    lp = dsg.lp
    links = set()
    for s1, _act, s2 in dsg.edges:
        if isinstance(s1.stmt, Throw) and s2.stmt.label in lp.handler_heads:
            links.add((s1.stmt.label, s2.stmt.label))
    throw_sites = {t for t, _ in links}
    avg = len(links) / len(throw_sites) if throw_sites else None
    return links, avg


def count_methods(dsg: DSG) -> int:
    lp = dsg.lp
    seen = set()
    for n in dsg.nodes:
        m = lp.method_of_label(n.stmt.label)
        seen.add((m.owner, m.name))
    return len(seen)


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    return f"{x:.4f}" if isinstance(x, float) else str(x)


@dataclass
class MetricsReport:
    policy_desc: str
    var_points_to: Optional[float]
    throws: Optional[float]
    ec_links: list
    ec_avg: Optional[float]
    nodes: int
    edges: int
    methods: int
    diagnostics: int

    def to_dict(self) -> dict:
        return {
            "note": POPULATION_NOTE,
            "policy": self.policy_desc,
            "varPointsTo": self.var_points_to,
            "throws": self.throws,
            "ecLinks": [list(p) for p in self.ec_links],
            "ecLinkCount": len(self.ec_links),
            "ecAverage": self.ec_avg,
            "nodes": self.nodes,
            "edges": self.edges,
            "methods": self.methods,
            "diagnostics": self.diagnostics,
        }

    def render(self) -> str:
        lines = [
            f"# {POPULATION_NOTE}",
            f"policy:        {self.policy_desc}",
            f"VarPointsTo:   {_fmt(self.var_points_to)}",
            f"Throws:        {_fmt(self.throws)}",
            f"E-C links:     {len(self.ec_links)}"
            + (f" {sorted(self.ec_links)}" if self.ec_links else ""),
            f"E-C avg/site:  {_fmt(self.ec_avg)}",
            f"nodes/edges:   {self.nodes}/{self.edges}",
            f"methods:       {self.methods}",
            f"diagnostics:   {self.diagnostics}",
        ]
        return "\n".join(lines)


def describe_policy(policy) -> str:
    return (f"k={policy.k} obj={'on' if policy.obj_sensitivity else 'off'} "
            f"gc={'on' if policy.gc else 'off'} "
            f"liveness={'on' if policy.liveness else 'off'} "
            f"mode={policy.mode}")


def report(dsg: DSG) -> MetricsReport:
    links, avg = metric_ec_links(dsg)
    var_points_to, throws = _role_means(points_to_union(dsg),
                                        thrown_classes(dsg))
    return MetricsReport(
        policy_desc=describe_policy(dsg.policy),
        var_points_to=var_points_to,
        throws=throws,
        ec_links=sorted(links),
        ec_avg=avg,
        nodes=len(dsg.nodes),
        edges=len(dsg.edges),
        methods=count_methods(dsg),
        diagnostics=len(dsg.diagnostics),
    )


def _ratio(num, den) -> Optional[float]:
    if num is None or den is None or den == 0:
        return None
    return num / den


@dataclass
class CompareReport:
    a: MetricsReport
    b: MetricsReport
    ratios: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"a": self.a.to_dict(), "b": self.b.to_dict(),
                "ratios": dict(self.ratios)}

    def render(self) -> str:
        out = ["== side A ==", self.a.render(), "",
               "== side B ==", self.b.render(), "",
               "== ratios (cardinalities B/A, sizes A/B) =="]
        for k, v in self.ratios.items():
            out.append(f"{k}: {_fmt(v)}")
        return "\n".join(out)


def compare(lp, policy_a, policy_b, budget: Budget | None = None) -> CompareReport:
    """Run both policies and put the reports side by side. Cardinality
    ratios divide B by A; graph-size ratios divide A by B."""
    try:
        ra = report(analyze(lp, policy_a, budget))
    except BudgetExceeded as err:
        raise SideBudgetExceeded("A", err) from err
    try:
        rb = report(analyze(lp, policy_b, budget))
    except BudgetExceeded as err:
        raise SideBudgetExceeded("B", err) from err
    ratios = {
        "varPointsTo B/A": _ratio(rb.var_points_to, ra.var_points_to),
        "throws B/A": _ratio(rb.throws, ra.throws),
        "ecLinkCount B/A": _ratio(float(len(rb.ec_links)),
                                  float(len(ra.ec_links))),
        "ecAverage B/A": _ratio(rb.ec_avg, ra.ec_avg),
        "nodes A/B": _ratio(float(ra.nodes), float(rb.nodes)),
        "edges A/B": _ratio(float(ra.edges), float(rb.edges)),
    }
    return CompareReport(a=ra, b=rb, ratios=ratios)
