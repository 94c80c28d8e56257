"""The anfj benchmark: seeded workloads run through `anfj.cli.main`.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. Every op is one in-process call of the
CLI entry point with the argv a user would type. A run repeats passes
over the workload's ops until --seconds are used up; the first pass
only warms up and fixes the reference export digests, and each metric
is the median over the other passes. Times are scaled to a reference
machine speed, measured by a fixed job run between passes. With
--trace 1 the passes alternate between untraced and traced, and the
per-layer metrics come from the traced ones. Outputs are checked on
every pass against references that do not come from the analyzer; see
perfbench/README.md.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import gen
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
CORPUS = ROOT / "tests" / "corpus"
MACHINE_TESTS = ROOT / "tests" / "test_machine.py"

# The machine copies its whole store on every step and keeps every
# state, so fuel far above the test suite's 2000 runs out of memory on
# the divergent corpus programs. The test suite's value is kept.
FUEL = 2000
SETUP_REPEATS = 11

# The speed of a shared machine drifts by tens of percent within
# minutes. calibrate(), which runs no anfj code, runs between passes,
# and a pass's times are scaled by CALIBRATION_REF_S over the mean time
# of the calibrations before and after it.
CALIBRATION_REF_S = 0.25

WORKLOADS = ("chain", "fanin-nogc", "corpus")
END_TO_END = {"wall_s": "s", "analyze_s": "s", "finite_s": "s",
              "run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
OUTCOMES = {"Halted": "halted", "Uncaught": "uncaught", "Stuck": "stuck",
            "FuelExhausted": "fuel-exhausted"}


class SetupError(Exception):
    pass


@dataclass
class Op:
    kind: str                           # "analyze" | "finite" | "run"
    program: str
    argv: list
    check: Callable[[str], Optional[str]]   # stdout -> error or None


# -- inputs -------------------------------------------------------------------

def import_anfj():
    src = ROOT / "src"
    if not (src / "anfj" / "cli.py").is_file():
        raise SetupError(f"no anfj sources under {src}")
    sys.path.insert(0, str(src))
    import anfj.cli
    if Path(anfj.cli.__file__).resolve().parent != src / "anfj":
        raise SetupError(f"anfj imported from {anfj.cli.__file__}, not {src}")
    return anfj.cli


def corpus_expected() -> dict:
    """The hand-verified EXPECTED table of the machine tests, read as
    data: name -> (outcome, class or None)."""
    try:
        tree = ast.parse(MACHINE_TESTS.read_text())
    except OSError as err:
        raise SetupError(f"cannot read {MACHINE_TESTS}: {err}") from err
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "EXPECTED"
                        for t in node.targets)):
            try:
                return {k.value: (OUTCOMES[v.elts[0].id], v.elts[1].value)
                        for k, v in zip(node.value.keys, node.value.values)}
            except (AttributeError, IndexError, KeyError) as err:
                raise SetupError(f"unreadable EXPECTED table: {err!r}")
    raise SetupError(f"no EXPECTED table in {MACHINE_TESTS}")


def load_inputs(workload: str, seed: int) -> list:
    """(name, source, expectation) triples in run order."""
    if workload == "corpus":
        expected = corpus_expected()
        names = sorted(p.stem for p in CORPUS.glob("*.anfj"))
        if not names or sorted(expected) != names:
            raise SetupError(f"{CORPUS} does not match the EXPECTED table")
        random.Random(f"corpus:{seed}").shuffle(names)
        return [(n, (CORPUS / f"{n}.anfj").read_text(), expected[n])
                for n in names]
    family = "chain" if workload == "chain" else "fanin"
    return [(p.name, p.source, p) for p in gen.generate(family, seed)]


def canonical(expect) -> str:
    """An expectation as text that does not depend on hash order."""
    if isinstance(expect, tuple):
        return repr(expect)
    return repr((sorted(expect.pushdown_links), sorted(expect.finite_links),
                 expect.result_class))


def setup(workload: str, seed: int):
    """Import anfj, make the inputs and write them where the CLI reads
    them. Returns the cli module, the inputs and a digest of them."""
    cli = import_anfj()
    inputs = load_inputs(workload, seed)
    OUT.mkdir(exist_ok=True)
    digest = hashlib.sha256()
    for name, source, expect in inputs:
        (OUT / f"{name}.anfj").write_text(source)
        digest.update(f"{name}\0{source}\0{canonical(expect)}\0".encode())
    return cli, inputs, digest.hexdigest()


def measure_setup(workload: str, seed: int, digest: str) -> tuple:
    """Median wall time of fresh processes that only set up, and any
    process whose inputs differ from this one's."""
    times, errors = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=20)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout.strip() != digest:
            errors.append(f"set-up process: exit {proc.returncode}, inputs "
                          f"{proc.stdout.strip()[:12]} != {digest[:12]} "
                          f"{proc.stderr.strip()[-200:]}")
    return statistics.median(times), errors


# -- checks -------------------------------------------------------------------

def method_map(source: str) -> tuple:
    """label -> "Class.method", throw labels and handler-head labels.
    Only the parser is used, never the analyzer."""
    from anfj.syntax import Throw, load_program
    lp = load_program(source)
    owner = {lbl: f"{m.owner}.{m.name}" for lbl, m in lp.method_of.items()}
    throws = {lbl for lbl, s in lp.stmt_by_label.items()
              if isinstance(s, Throw)}
    return owner, throws, set(lp.handler_heads)


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def report_check(out: str) -> Optional[str]:
    if "ecLinks" not in last_json(out):
        return "report without E-C links"
    return None


def report_links(owner: dict):
    def links(out: str) -> frozenset:
        return frozenset((owner[t], owner[h])
                         for t, h in last_json(out)["ecLinks"])
    return links


def digest_check(paths: list, inner=None):
    """Exports must be byte-identical on every pass."""
    seen: dict = {}

    def check(out: str) -> Optional[str]:
        for path in paths:
            h = hashlib.sha256(path.read_bytes()).hexdigest()
            if seen.setdefault(path.name, h) != h:
                return f"{path.name} changed between passes"
        return inner(out) if inner else None
    return check


def links_check(links, want: frozenset, what: str):
    def check(out: str) -> Optional[str]:
        got = links(out)
        if got != want:
            return f"{what} E-C links {sorted(got)} != {sorted(want)}"
        return None
    return check


def concrete_check(owner: dict, throws: set, heads: set, prog):
    """The concrete trace must catch throws exactly where the pushdown
    links say, and end halted with the known class or out of fuel."""
    def check(out: str) -> Optional[str]:
        lines = [json.loads(x) for x in out.strip().splitlines()]
        trace, end = lines[:-1], lines[-1]
        got = frozenset(
            (owner[a["label"]], owner[b["label"]])
            for a, b in zip(trace, trace[1:])
            if a["label"] in throws and b["label"] in heads)
        if got != prog.pushdown_links:
            return f"concrete E-C links {sorted(got)} != " \
                   f"{sorted(prog.pushdown_links)}"
        halted = (end["outcome"] == "halted"
                  and end.get("class") == prog.result_class)
        if not halted and not (end["outcome"] == "fuel-exhausted"
                               and end["steps"] == FUEL):
            return f"concrete outcome {end}"
        return None
    return check


def outcome_check(want: tuple):
    def check(out: str) -> Optional[str]:
        got = last_json(out)
        if (got["outcome"], got.get("class")) != want:
            return f"outcome {got} != {want}"
        return None
    return check


def build_ops(workload: str, inputs: list) -> list:
    ops = []
    flags = ["--gc", "off", "--k", "1"] if workload == "fanin-nogc" else []
    for name, source, expect in inputs:
        path = str(OUT / f"{name}.anfj")
        exports = [OUT / f"{name}.json", OUT / f"{name}.dot"]
        analyze = ["analyze", path, *flags, "--json", str(exports[0]),
                   "--dot", str(exports[1]), "--report-json"]
        finite = ["analyze", path, *flags, "--mode", "finite",
                  "--report-json"]
        if workload == "corpus":
            ops += [Op("run", name, ["run", path, "--fuel", str(FUEL),
                                     "--json"], outcome_check(expect)),
                    Op("analyze", name, analyze, digest_check(exports)),
                    Op("finite", name, finite, report_check)]
            continue
        owner, throws, heads = method_map(source)
        links = report_links(owner)
        ops += [
            Op("analyze", name, analyze, digest_check(exports, links_check(
                links, expect.pushdown_links, "pushdown"))),
            Op("finite", name, finite, links_check(
                links, expect.finite_links, "finite")),
            Op("run", name, ["run", path, "--fuel", str(FUEL), "--trace",
                             "--json"],
               concrete_check(owner, throws, heads, expect)),
        ]
    return ops


# -- passes -------------------------------------------------------------------

def run_op(cli, op: Op, tracer=None) -> tuple:
    """(seconds, error or None) for one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.kind, tracer.program = op.kind, op.program
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        dt = time.perf_counter() - t0
    if code != 0:
        return dt, f"exit {code!r} {err.getvalue().strip()[-300:]}"
    if "Traceback" in err.getvalue():
        return dt, "traceback on stderr"
    try:
        return dt, op.check(out.getvalue())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return dt, f"unreadable output: {exc!r}"


def calibrate() -> float:
    """Seconds of a fixed pure-Python job shaped like the analyzer's
    inner loops: dict copies, frozenset unions, tuple hashing, sorting."""
    base = {(i, "x"): frozenset(range(i % 7)) for i in range(1000)}
    t0 = time.perf_counter()
    for r in range(350):
        out = dict(base)
        for k, v in base.items():
            out[k] = v | frozenset((r,))
        sorted(out, key=lambda k: (k[1], k[0]))
    return time.perf_counter() - t0


def scaled(times: dict) -> dict:
    """A pass's times at the reference machine speed."""
    factor = CALIBRATION_REF_S / times["calibration_s"]
    return {k: v * factor for k, v in times.items() if k != "calibration_s"}


def run_pass(cli, ops: list, failures: list, tracer=None) -> dict:
    """Raw seconds per op kind."""
    gc.collect()
    spent = {"analyze": 0.0, "finite": 0.0, "run": 0.0}
    for op in ops:
        dt, error = run_op(cli, op, tracer)
        spent[op.kind] += dt
        if error is not None:
            failures.append(f"{op.kind} {op.program}: {error}")
    return {"wall_s": sum(spent.values()), "analyze_s": spent["analyze"],
            "finite_s": spent["finite"], "run_s": spent["run"]}


def layer_metrics(tr, times: dict) -> dict:
    """Per-layer figures of one traced pass, in raw seconds except
    trace.wall_s, which is scaled like the end-to-end times."""
    c, calls, total = tr.counts, tr.calls, tr.total_s

    def ratio(a, b):
        return a / b if b else 0.0

    eng_s = total["engine.analyze"]
    analyze_layers = sum(tr.layer_self(p, "analyze") for p in (
        "gc.", "domain.", "engine.", "export.", "metrics.", "syntax."))
    return {
        "gc.eagc_s": tr.layer_self("gc.eagc"),
        "gc.eagc_calls": calls["gc.eagc"],
        "gc.kept_ratio": ratio(c["gc.addrs_kept"], c["gc.addrs_in"]),
        "domain.next_s": tr.layer_self("domain.next"),
        "domain.next_calls": calls["domain.next"],
        "domain.store_join_s": tr.layer_self("domain.store_join"),
        "domain.store_join_calls": calls["domain.store_join"],
        "domain.store_join_grew_ratio": ratio(
            c["domain.store_join_grew"], calls["domain.store_join"]),
        "engine.analyze_s": eng_s,
        "engine.self_s": tr.layer_self("engine.analyze"),
        "engine.closure_s": tr.layer_self("engine.closure"),
        "engine.steps": c["engine.steps"],
        "engine.nodes": c["engine.nodes"],
        "engine.edges": c["engine.edges"],
        "engine.resteps": c["engine.steps"] - c["engine.nodes"],
        "engine.steps_per_node": ratio(c["engine.steps"], c["engine.nodes"]),
        "engine.us_per_step": ratio(eng_s * 1e6, c["engine.steps"]),
        "engine.summary_edges": c["engine.summary_edges"],
        "engine.full_store_addrs": ratio(c["engine.full_store_addrs"],
                                         c["engine.nodes"]),
        "engine.visible_store_addrs": ratio(c["engine.visible_store_addrs"],
                                            c["engine.nodes"]),
        "finite.analyze_s": total["finite.analyze"],
        "finite.self_s": tr.layer_self("finite.analyze"),
        "finite.steps": c["finite.steps"],
        "finite.steps_per_node": ratio(c["finite.steps"], c["finite.nodes"]),
        "export.json_s": tr.layer_self("export.json"),
        "export.dot_s": tr.layer_self("export.dot"),
        "export.bytes": c["export.bytes"],
        "metrics.report_s": tr.layer_self("metrics.report"),
        "machine.run_s": total["machine.run"],
        "machine.states": c["machine.states"],
        "machine.us_per_state": ratio(total["machine.run"] * 1e6,
                                      c["machine.states"]),
        "syntax.load_s": tr.layer_self("syntax.load"),
        "cli.self_s": tr.layer_self("cli"),
        "trace.wall_s": scaled(times)["wall_s"],
        "trace.analyze_s": times["analyze_s"],
        "trace.analyze_covered_ratio": ratio(analyze_layers,
                                             times["analyze_s"]),
        "trace.bookkeeping_s": tr.overhead_s,
        "trace.calibration_s": times["calibration_s"],
    }


LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "us_per_step": "us",
               "us_per_state": "us", "bytes": "bytes"}


def unit_of(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def measure(cli, ops: list, seconds: float, trace: int, failures: list):
    """Run passes until the next one would end after `seconds`. Pass 0
    warms up; with trace, every second pass after it is traced. Returns
    the pass count, the times of untraced passes, the per-layer figures
    of traced passes and the last tracer."""
    untraced, per_layer = [], []
    passes, last_tracer = 0, None
    start = time.perf_counter()
    calibration = calibrate()
    while True:
        tracer = None
        if trace and passes % 2 == 0 and passes > 0:
            tracer = layers.Tracer()
            layers.install(tracer)
        t0 = time.perf_counter()
        try:
            times = run_pass(cli, ops, failures, tracer)
        finally:
            if tracer is not None:
                tracer.remove()
        after = calibrate()
        times["calibration_s"] = (calibration + after) / 2
        calibration = after
        last = time.perf_counter() - t0
        if tracer is not None:
            per_layer.append(layer_metrics(tracer, times))
            last_tracer = tracer
        elif passes > 0:
            untraced.append(times)
        passes += 1
        enough = passes >= (3 if trace else 2)
        if enough and time.perf_counter() - start + last > seconds:
            return passes, untraced, per_layer, last_tracer


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        cli, inputs, digest = setup(args.workload, args.seed)
    except (SetupError, OSError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(digest)
        return 0
    setup_s, failures = measure_setup(args.workload, args.seed, digest)
    ops = build_ops(args.workload, inputs)

    passes, untraced, per_layer, tracer = measure(cli, ops, args.seconds,
                                                  args.trace, failures)

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        metrics = {k: med(per_layer, k) for k in per_layer[0]}
        metrics["trace.untraced_wall_s"] = med(map(scaled, untraced),
                                               "wall_s")
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - metrics["trace.untraced_wall_s"])
        for (prog, layer), (steps, nodes) in sorted(
                tracer.per_program.items()):
            print(f"{prog} {layer}.steps_per_node {steps / nodes:.4f} "
                  f"({steps} steps, {nodes} nodes)")
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in metrics.items()}
    else:
        rows = [scaled(t) for t in untraced]
        metrics = {k: med(rows, k) for k in rows[0]}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        metrics["setup_s"] = setup_s * CALIBRATION_REF_S / med(
            untraced, "calibration_s")
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}

    attempted = passes * len(ops) + SETUP_REPEATS
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={passes} "
          f"ops/pass={len(ops)} fail_ratio={len(failures) / attempted:.4f} "
          f"calibration={med(untraced, 'calibration_s'):.4f}s "
          f"(reference {CALIBRATION_REF_S}s)")
    if not args.trace:
        print("# unscaled medians: " + " ".join(
            f"{k}={med(untraced, k):.4f}s" for k in untraced[0]
            if k != "calibration_s") + f" setup_s={setup_s:.4f}s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
