"""Command-line driver.

Three subcommands: `run` executes a program on the concrete machine,
`analyze` builds the abstract state graph and prints a metrics report,
`compare` runs two policies side by side. Exit codes: 0 success, 1 bad
input (a bad flag or flag value included) or a standard output closed
before all was written, 2 analysis budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import export as exportmod
from . import metrics as metricsmod
from .engine import Budget, BudgetExceeded, analyze
from .machine import (
    DEFAULT_FUEL, FuelExhausted, Halt, Halted, Stuck, Uncaught, run,
)
from .metrics import SideBudgetExceeded
from .domain import Policy
from .syntax import AnfjError, load_program


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            src = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise AnfjError(f"cannot read {path}: {err}") from err
    return load_program(src)


def parse_policy_spec(spec: str) -> Policy:
    """Parse a compact policy string: comma-separated tokens among
    k=N, obj[=on|off], gc=on|off, liveness=on|off, mode=pushdown|finite.
    Omitted tokens take the Policy defaults; any other token is an
    AnfjError."""
    kw = {}
    for raw in spec.split(","):
        token = raw.strip()
        if not token:
            continue
        name, eq, val = token.partition("=")
        if name == "k":
            if not eq or not (val.isascii() and val.isdigit()):
                raise AnfjError(f"bad policy token {token!r}: want k=N")
            kw["k"] = int(val)
        elif name == "obj":
            kw["obj_sensitivity"] = _onoff(token, val) if eq else True
        elif name in ("gc", "liveness"):
            if not eq:
                raise AnfjError(f"bad policy token {token!r}: want {name}=on|off")
            kw[name] = _onoff(token, val)
        elif name == "mode":
            kw["mode"] = val
        else:
            raise AnfjError(f"unknown policy token {token!r}")
    try:
        return Policy(**kw)
    except ValueError as err:
        raise AnfjError(str(err)) from err


def _onoff(token: str, val: str) -> bool:
    if val == "on":
        return True
    if val == "off":
        return False
    raise AnfjError(f"bad policy token {token!r}: want on|off")


def _policy_from_flags(args) -> Policy:
    try:
        return Policy(k=args.k, obj_sensitivity=args.obj_sens,
                      gc=args.gc == "on", liveness=args.liveness == "on",
                      mode=args.mode)
    except ValueError as err:
        raise AnfjError(str(err)) from err


def _budget_from_flags(args) -> Budget:
    b = Budget()
    if args.budget_nodes is not None:
        b.max_nodes = args.budget_nodes
    if args.budget_seconds is not None:
        b.max_seconds = args.budget_seconds
    return b


def _nonnegative_int(text: str) -> int:
    """argparse type for a count: a negative one is a usage error."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"not a nonnegative integer: {text!r}")
    return int(text)


def _seconds(text: str) -> float:
    """argparse type for a time budget: a negative one, and NaN, which
    no elapsed time exceeds, are usage errors."""
    try:
        t = float(text)
    except ValueError:
        t = math.nan               # refused below, as NaN is
    if not t >= 0:
        raise argparse.ArgumentTypeError(
            f"not a nonnegative number of seconds: {text!r}")
    return t


def _write_export(dsg, fmt: str, path: str) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(exportmod.export_dsg(dsg, fmt))
    except OSError as err:
        raise AnfjError(f"cannot write {path}: {err}") from err


def _write_trace(trace, out) -> None:
    """One JSON line per state, in the layout json.dumps(sort_keys=True)
    gives: {"fp": [site, id], "kontDepth": n, "label": l, "step": i}.
    The id names the frame's call history: 0 the empty one, any other
    its parent's id and newest label, interned, so that a trace prints
    each history once. The first line naming an id adds "history":
    [[id, parent, label], ...], defining it and its undefined ancestors,
    oldest first. Each continuation's depth is counted once, from the
    depth of the one below it."""
    hid: dict = {}                # history cell -> id
    interned: dict = {}           # (parent id, label) -> id
    fp_text: dict = {}            # frame pointer -> its "fp" text
    depth: dict = {}              # id(continuation) -> depth; all are alive
    for i, st in enumerate(trace):
        fp = st.fp
        text = fp_text.get(fp)
        if text is None:
            t, above = fp.time, []
            while t and t not in hid:
                above.append(t)
                t = t.rest
            h = hid[t] if t else 0
            new = []
            for cell in reversed(above):
                key = (h, cell.label)
                parent, h = h, interned.get(key)
                if h is None:
                    h = interned[key] = len(interned) + 1
                    new.append(f"[{h}, {parent}, {cell.label}]")
                hid[cell] = h
            text = fp_text[fp] = f'"fp": [{json.dumps(fp.site)}, {h}], '
            if new:
                text += f'"history": [{", ".join(new)}], '
        k = st.kont
        d = depth.get(id(k))
        if d is None:
            above = []
            while d is None and not isinstance(k, Halt):
                above.append(k)
                k = k.next
                d = depth.get(id(k))
            d = d or 0
            for frame in reversed(above):
                d += 1
                depth[id(frame)] = d
        out.write(f'{{{text}"kontDepth": {d}, '
                  f'"label": {st.stmt.label}, "step": {i}}}\n')


def cmd_run(args) -> int:
    lp = _load(args.file)
    outcome, trace = run(lp, fuel=args.fuel)
    if args.trace:
        _write_trace(trace, sys.stdout)
    if isinstance(outcome, Halted):
        desc = {"outcome": "halted", "class": outcome.value.class_name}
    elif isinstance(outcome, Uncaught):
        desc = {"outcome": "uncaught", "class": outcome.value.class_name}
    elif isinstance(outcome, Stuck):
        desc = {"outcome": "stuck", "reason": outcome.reason}
    else:
        assert isinstance(outcome, FuelExhausted)
        desc = {"outcome": "fuel-exhausted"}
    desc["steps"] = len(trace)
    if args.json:
        print(json.dumps(desc, sort_keys=True))
    else:
        extra = {k: v for k, v in desc.items() if k != "outcome"}
        detail = " ".join(f"{k}={v}" for k, v in sorted(extra.items()))
        print(f"{desc['outcome']} {detail}".rstrip())
    return 0


def cmd_analyze(args) -> int:
    lp = _load(args.file)
    policy = _policy_from_flags(args)
    dsg = analyze(lp, policy, _budget_from_flags(args))
    if args.stats:
        print(json.dumps(dsg.stats, sort_keys=True), file=sys.stderr)
    if args.dot:
        _write_export(dsg, "dot", args.dot)
    if args.json:
        _write_export(dsg, "json", args.json)
    rep = metricsmod.report(dsg)
    if args.report_json:
        print(json.dumps(rep.to_dict(), sort_keys=True))
    else:
        print(rep.render())
    return 0


def cmd_compare(args) -> int:
    lp = _load(args.file)
    pa = parse_policy_spec(args.a)
    pb = parse_policy_spec(args.b)
    cmp = metricsmod.compare(lp, pa, pb, _budget_from_flags(args))
    if args.json:
        print(json.dumps(cmp.to_dict(), sort_keys=True))
    else:
        print(cmp.render())
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, as all bad input
    does; argparse's own code 2 would read as an exhausted budget. The
    subcommand parsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args never changes
    it and makes a fresh namespace on every call."""
    ap = _Parser(
        prog="anfj",
        description="Interpreter and exception-flow analyzer for the "
                    "ANFJ object language.")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a program concretely")
    runp.add_argument("file")
    runp.add_argument("--fuel", type=_nonnegative_int, default=DEFAULT_FUEL,
                      help="maximum number of machine states to visit")
    runp.add_argument("--trace", action="store_true",
                      help="print one JSON line per visited state")
    runp.add_argument("--json", action="store_true",
                      help="print the outcome as JSON")
    runp.set_defaults(fn=cmd_run)

    anp = sub.add_parser("analyze", help="build the abstract state graph")
    anp.add_argument("file")
    anp.add_argument("--k", type=int, default=0,
                     help="call-site context depth")
    anp.add_argument("--obj-sens", action="store_true",
                     help="split allocations by receiver allocation site")
    anp.add_argument("--gc", choices=("on", "off"), default="on",
                     help="abstract garbage collection")
    anp.add_argument("--liveness", choices=("on", "off"), default="on",
                     help="restrict GC roots to statically live variables")
    anp.add_argument("--mode", choices=("pushdown", "finite"),
                     default="pushdown")
    anp.add_argument("--dot", metavar="PATH",
                     help="write the graph in DOT form to PATH")
    anp.add_argument("--json", metavar="PATH",
                     help="write the graph in JSON form to PATH")
    anp.add_argument("--report-json", action="store_true",
                     help="print the metrics report as JSON")
    anp.add_argument("--stats", action="store_true",
                     help="print the work counters as JSON on stderr")
    anp.add_argument("--budget-nodes", type=_nonnegative_int, default=None)
    anp.add_argument("--budget-seconds", type=_seconds, default=None)
    anp.set_defaults(fn=cmd_analyze)

    cmpp = sub.add_parser("compare", help="run two policies side by side")
    cmpp.add_argument("file")
    cmpp.add_argument("--a", required=True, metavar="POLICY",
                      help="policy spec, e.g. 'k=1,obj,gc=on'")
    cmpp.add_argument("--b", required=True, metavar="POLICY")
    cmpp.add_argument("--json", action="store_true",
                      help="print both reports and ratios as JSON")
    cmpp.add_argument("--budget-nodes", type=_nonnegative_int, default=None)
    cmpp.add_argument("--budget-seconds", type=_seconds, default=None)
    cmpp.set_defaults(fn=cmd_compare)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()        # a reader gone shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone; the flush at exit must not fail again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        return 1
    except SideBudgetExceeded as err:
        print(f"budget exceeded on side {err.side}: {err.exc}",
              file=sys.stderr)
        return 2
    except BudgetExceeded as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 2
    except AnfjError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
