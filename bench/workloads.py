"""The four workloads as lists of requests, with their output checks.

A request is one call a user of the package would make: a library entry point
on one program, or one ``aam`` command line.  Every call resolves the
package's functions through their modules at call time (``machines.run_trace``,
never a local alias), so the layer tracer's wrappers see every call.

Each request has

* ``run``          the timed call;
* ``fingerprint``  a small exact summary of the result (steps, states,
                   edges, finals, rounds, store entries, or the sha256 of
                   the command's standard output) that must not change
                   between passes or, for the default seed, from the
                   recorded value;
* ``check``        oracle checks independent of the package, run once per
                   request outside the timed passes.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import programs as P

# Bound per run of a concrete machine; the Church ladder finishes well
# inside it and the divergent terms stop at DIVERGE_FUEL.
FUEL = 100_000
DIVERGE_FUEL = 200
CLI_DIVERGE_FUEL = 300
# Generated terminating programs normalize within 300 beta steps, far
# inside this many cek steps.
ORACLE_FUEL = 20_000

WORKLOADS = ("concrete-ladder", "explore", "widen-ladder", "cli-corpus")


@dataclass
class Request:
    id: str
    run: Callable[[], object]
    fingerprint: Callable[[object], dict]
    check: Callable[[object], list] = field(default=lambda result: [])


class Modules:
    """The package's modules, imported once; attributes are read at call
    time so wrapped functions are picked up."""

    def __init__(self):
        import aam.analysis
        import aam.cli
        import aam.extended
        import aam.gc
        import aam.inspection
        import aam.lazy
        import aam.machines
        import aam.pushdown
        import aam.store
        import aam.syntax

        self.analysis = aam.analysis
        self.cli = aam.cli
        self.extended = aam.extended
        self.gc = aam.gc
        self.inspection = aam.inspection
        self.lazy = aam.lazy
        self.machines = aam.machines
        self.pushdown = aam.pushdown
        self.store = aam.store
        self.syntax = aam.syntax


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def _unparse_value(v) -> str | None:
    from aam.syntax import unparse

    lam = getattr(v, "lam", None)
    return None if lam is None else unparse(lam)


def fp_trace(t) -> dict:
    last = t.states[-1]
    store = getattr(last, "store", None)
    return {
        "outcome": t.outcome,
        "steps": t.steps,
        "value": _unparse_value(t.value),
        "store": -1 if store is None else len(store),
    }


def fp_graph(g) -> dict:
    return {"states": len(g.states), "edges": len(g.edges), "finals": len(g.finals)}


def fp_widened(w) -> dict:
    return {
        "contexts": len(w.contexts),
        "store": len(w.store),
        "values": sum(len(vs) for vs in w.store.values()),
        "rounds": w.iterations,
    }


def fp_pushdown(g) -> dict:
    return {"nodes": len(g.nodes), "edges": len(g.edges), "finals": len(g.finals)}


def fp_pushdown_widened(w) -> dict:
    return dict(fp_pushdown(w.graph), store=len(w.store), rounds=w.iterations)


def fp_cli(result) -> dict:
    code, out = result
    return {"code": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}


# ---------------------------------------------------------------------------
# Oracle helpers
# ---------------------------------------------------------------------------


def _instance_of(pat, term, bp=(), bt=(), sub=None) -> bool:
    """Whether ``term`` is ``pat`` with its free variables replaced by
    closed terms, consistently.  Used to compare a machine's final lambda
    (printed without its environment) with the substitution oracle's
    normal form."""
    from oracles import debruijn

    from aam.syntax import App, Lam, Ref

    sub = {} if sub is None else sub
    if isinstance(pat, Ref):
        if pat.name in bp:
            i = bp[::-1].index(pat.name)
            return isinstance(term, Ref) and term.name in bt and bt[::-1].index(term.name) == i
        try:
            key = debruijn(term)
        except TypeError:
            return False
        if _escapes(key):
            return False
        return sub.setdefault(pat.name, key) == key
    if isinstance(pat, Lam):
        return isinstance(term, Lam) and _instance_of(
            pat.body, term.body, bp + (pat.param,), bt + (term.param,), sub
        )
    if isinstance(pat, App):
        return (
            isinstance(term, App)
            and _instance_of(pat.fun, term.fun, bp, bt, sub)
            and _instance_of(pat.arg, term.arg, bp, bt, sub)
        )
    return False


def _escapes(key) -> bool:
    """Whether a de Bruijn skeleton refers to a binder outside itself."""
    stack = [(key, 0)]
    while stack:
        k, depth = stack.pop()
        if k[0] == "v":
            if k[1] >= depth:
                return True
        elif k[0] == "l":
            stack.append((k[1], depth + 1))
        elif k[0] == "a":
            stack.append((k[1], depth))
            stack.append((k[2], depth))
    return False


class Oracle:
    """Answers computed once per program, outside the timed passes."""

    def __init__(self, m: Modules):
        self.m = m
        self._cbv: dict = {}
        self._mono: dict = {}
        self._final: dict = {}

    def normal_form(self, e):
        from oracles import cbv_normalize

        if e not in self._cbv:
            self._cbv[e] = cbv_normalize(e, 10_000)
        return self._cbv[e]

    def value_ok(self, lam_text: str, e) -> bool:
        from aam.syntax import parse

        return _instance_of(parse(lam_text), self.normal_form(e))

    def concrete_final_lambda(self, e):
        """The lambda node a core program ends on under ``cek``, or None
        when it does not finish within ORACLE_FUEL steps."""
        if e not in self._final:
            t = self.m.machines.run_trace("cek", e, ORACLE_FUEL)
            self._final[e] = t.value.lam if t.outcome == "final" else None
        return self._final[e]

    def mono_flow_problems(self, e, pairs) -> list:
        """Monovariant flow must be a subset of the constraint solver's."""
        from oracles import mini_0cfa

        if e not in self._mono:
            self._mono[e] = mini_0cfa(e)
        allowed = self._mono[e]
        bad = [f"{x} <- {lbl}" for x, lbl in pairs if lbl not in allowed.get(x, ())]
        return [f"flow outside mini_0cfa: {', '.join(sorted(set(bad)))}"] if bad else []


def _mono_pairs(stores) -> set:
    from aam.machines import Closure
    from aam.store import MonoBindA
    from aam.syntax import Lam

    out = set()
    for store in stores:
        for a, vs in store.items():
            if isinstance(a, MonoBindA):
                for v in vs:
                    lam = v.lam if isinstance(v, Closure) else v
                    if isinstance(lam, Lam):
                        out.add((a.var, lam.label))
    return out


def _church_trace_check(t) -> list:
    if t.outcome != "final" or _unparse_value(t.value) != P.CHURCH_RESULT:
        return [f"expected {P.CHURCH_RESULT}, got {t.outcome} {_unparse_value(t.value)}"]
    return []


def _final_labels(states, finals) -> set:
    return {getattr(states[i].ctrl, "label", None) for i in finals}


def _final_texts(states, finals) -> set:
    from aam.syntax import Exp, unparse

    return {unparse(states[i].ctrl) for i in finals if isinstance(states[i].ctrl, Exp)}


# ---------------------------------------------------------------------------
# concrete-ladder
# ---------------------------------------------------------------------------

LADDER = (4, 6, 8, 10, 12, 14, 16, 18, 20)
# Addition-encoded rungs: the encoding leaves more dead bindings to collect.
GC_RUNGS = (3, 4, 5, 6)
TOWER = ("cek", "cesk", "ceskstar", "ceskt")
CALL_BY_VALUE = TOWER + ("ext", "cm")
LK_VARIANTS = ("standard", "opt", "postponed")


def _concrete_runners(M: Modules):
    """(name, function from expression and fuel to a Trace)."""
    out = [(name, (lambda name: lambda e, fuel: M.machines.run_trace(name, e, fuel))(name))
           for name in TOWER]
    for v in LK_VARIANTS:
        out.append((f"lk-{v}", (lambda v: lambda e, fuel: M.machines.trace_from(
            lambda s: M.lazy.step_lk(s, v), M.lazy.inject_lk(e), fuel))(v)))
    out.append(("ext", lambda e, fuel: M.machines.trace_from(
        M.extended.step_extended, M.extended.inject_extended(e), fuel)))
    out.append(("cm", lambda e, fuel: M.machines.trace_from(
        lambda s: M.inspection.step_cm(s, frozenset()), M.inspection.inject_cm(e, frozenset()), fuel)))
    return out


def _gc_ceskt(M, e, fuel):
    inject, step = M.machines.MACHINES["ceskt"]
    policy = M.machines.FRESH_POLICY
    stepper = M.gc.collecting_step(lambda s: step(s, policy))
    return M.machines.trace_from(stepper, M.gc.collect(inject(e, policy)), fuel)


def _gc_lk(M, e, fuel):
    stepper = M.gc.collecting_step(lambda s: M.lazy.step_lk(s, "standard"))
    return M.machines.trace_from(stepper, M.gc.collect(M.lazy.inject_lk(e)), fuel)


def concrete_ladder(m: Modules, setup) -> list:
    parse = lambda text: m.syntax.parse_program(text).exp  # noqa: E731
    reqs = []
    runners = _concrete_runners(m)
    for n in LADDER:
        e = parse(P.church_direct(n, n))
        for name, run in runners:
            reqs.append(Request(f"{name}/mul{n}", (lambda d, e: lambda: d(e, FUEL))(run, e),
                                fp_trace, _church_trace_check))
    for n in GC_RUNGS:
        e = parse(P.church_add(n, n))
        for name, fn in (("ceskt-gc", _gc_ceskt), ("lk-gc", _gc_lk)):
            reqs.append(Request(f"{name}/addmul{n}", (lambda fn, e: lambda: fn(m, e, FUEL))(fn, e),
                                fp_trace, _church_trace_check))

    def diverges(t):
        if t.outcome != "fuel" or t.steps != DIVERGE_FUEL:
            return [f"expected to run out of fuel, got {t.outcome} after {t.steps}"]
        return []

    # Call-by-need may skip the looping operand, so only the call-by-value
    # runners are certain to run out of fuel.
    for prog in setup["div"]:
        for name, run in runners:
            if name not in CALL_BY_VALUE:
                continue
            reqs.append(Request(f"{name}/{prog.name}",
                                (lambda d, e: lambda: d(e, DIVERGE_FUEL))(run, prog.exp),
                                fp_trace, diverges))
    return reqs


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

# Church products, each request between about 1 ms and 0.5 s.
EXPLORE_K0 = ((1, 1), (2, 1), (1, 2), (3, 1), (4, 1), (2, 2), (5, 1), (1, 3), (3, 2), (2, 3))
EXPLORE_0CFA_ONLY = ((3, 3),)
EXPLORE_GC_K0 = ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2))
EXPLORE_K1 = tuple(range(2, 13))
EXPLORE_K1_GC = tuple(range(2, 8))
EXPLORE_OTHER_K1 = tuple(range(2, 11))
EXPLORE_OTHER_K1_GC = tuple(range(2, 7))
EXPLORE_PD = tuple(range(2, 13))


def _abstract_parts(M, kind: str, e, k: int, universe=frozenset(P.PERMS)):
    """Initial state, successor function and finality test for one
    abstract machine, built at call time."""
    p = M.analysis.KCFAPolicy(k)
    if kind == "kcfa":
        return (M.analysis.inject_abstract(e, p), lambda s: M.analysis.step_abstract(s, p),
                M.analysis.is_final_abstract)
    if kind == "alk":
        return (M.lazy.inject_alk(e, p), lambda s: M.lazy.step_lk_star_abstract(s, p),
                M.lazy.is_final_alk)
    if kind == "aext":
        return (M.extended.inject_aext(e, p), lambda s: M.extended.step_extended_abstract(s, p),
                M.extended.is_final_ext)
    if kind == "acm":
        return (M.inspection.inject_acm(e, universe, p),
                lambda s: M.inspection.step_cm_abstract(s, universe, p), M.inspection.is_final_acm)
    raise ValueError(kind)


def _explore(M, kind, e, k, collect):
    initial, succ, final = _abstract_parts(M, kind, e, k)
    if collect:
        initial = M.gc.collect(initial, abstract=True)
        succ = M.gc.collecting_successors(succ)
    return M.analysis.explore_states(initial, succ, final)


def explore(m: Modules, setup) -> list:
    M, oracle = m, setup["oracle"]
    parse = lambda text: m.syntax.parse_program(text).exp  # noqa: E731
    reqs = []

    def church_check(g):
        if P.CHURCH_RESULT not in _final_texts(g.states, g.finals):
            return [f"{P.CHURCH_RESULT} is not among the abstract finals"]
        return []

    def church_mono(e):
        def check(g):
            stores = [s.store for s in g.states]
            return church_check(g) + oracle.mono_flow_problems(e, _mono_pairs(stores))
        return check

    def add(rid, run, fp, check):
        reqs.append(Request(rid, run, fp, check))

    for a, b in EXPLORE_K0 + EXPLORE_0CFA_ONLY:
        e = parse(P.church_direct(a, b))
        if (a, b) not in EXPLORE_0CFA_ONLY:
            add(f"kcfa0/mul{a}x{b}",
                (lambda e: lambda: M.analysis.explore(e, M.analysis.KCFAPolicy(0)))(e),
                fp_graph, church_mono(e))
        add(f"0cfa/mul{a}x{b}", (lambda e: lambda: M.analysis.explore_0cfa(e))(e),
            fp_graph, church_mono(e))
    for a, b in EXPLORE_GC_K0:
        e = parse(P.church_direct(a, b))
        add(f"kcfa0-gc/mul{a}x{b}", (lambda e: lambda: _explore(M, "kcfa", e, 0, True))(e),
            fp_graph, church_check)
    for kind, ladder, collect in (("kcfa", EXPLORE_K1, False), ("kcfa", EXPLORE_K1_GC, True),
                                  ("aext", EXPLORE_OTHER_K1, False), ("acm", EXPLORE_OTHER_K1, False),
                                  ("aext", EXPLORE_OTHER_K1_GC, True)):
        for n in ladder:
            e = parse(P.church_direct(n, n))
            tag = f"{kind}1" + ("-gc" if collect else "")
            add(f"{tag}/mul{n}",
                (lambda kind, e, c: lambda: _explore(M, kind, e, 1, c))(kind, e, collect),
                fp_graph, church_check)
    for n in EXPLORE_PD:
        e = parse(P.church_direct(n, n))

        def pd_check(g):
            texts = {m.syntax.unparse(lam) for lam in g.final_controls()}
            return [] if P.CHURCH_RESULT in texts else [f"{P.CHURCH_RESULT} not a final control"]

        add(f"pushdown/mul{n}", (lambda e: lambda: M.pushdown.reachable_pushdown(e))(e),
            fp_pushdown, pd_check)

    def covers(e, kind):
        """The concrete final lambda must be among the abstract finals."""
        def check(g):
            if kind == "pushdown":
                labels = {lam.label for lam in g.final_controls()}
            else:
                labels = _final_labels(g.states, g.finals)
            lam = oracle.concrete_final_lambda(e)
            if lam is not None and lam.label not in labels:
                return [f"concrete final {m.syntax.unparse(lam)} not among abstract finals"]
            return []
        return check

    for prog in setup["term"] + setup["div"]:
        e = prog.exp
        for kind, collect in (("kcfa", False), ("kcfa", True), ("alk", False)):
            tag = f"{kind}1" + ("-gc" if collect else "")
            add(f"{tag}/{prog.name}",
                (lambda kind, e, c: lambda: _explore(M, kind, e, 1, c))(kind, e, collect),
                fp_graph, covers(e, kind))
        add(f"pushdown/{prog.name}", (lambda e: lambda: M.pushdown.reachable_pushdown(e))(e),
            fp_pushdown, covers(e, "pushdown"))
    for group, kind in (("ext", "aext"), ("sec", "acm")):
        for prog in setup[group]:
            add(f"{kind}1/{prog.name}",
                (lambda kind, e: lambda: _explore(M, kind, e, 1, False))(kind, prog.exp),
                fp_graph, lambda g: [])
    return reqs


# ---------------------------------------------------------------------------
# widen-ladder
# ---------------------------------------------------------------------------

# Church products, each request between about 15 ms and 0.3 s.
WIDEN_DIRECT = tuple((a, b) for a in range(1, 5) for b in range(1, 5)) + (
    (5, 1), (1, 5), (5, 2), (2, 5), (6, 1))


def _widened_aext(M, e):
    p = M.analysis.KCFAPolicy(1)
    return M.analysis.widened_fixpoint(M.extended.inject_aext(e, p),
                                       lambda s: M.extended.step_extended_abstract(s, p))


def widen_ladder(m: Modules, setup) -> list:
    M, oracle = m, setup["oracle"]
    parse = lambda text: m.syntax.parse_program(text).exp  # noqa: E731
    runners = (
        ("0cfa-widen", lambda e: M.analysis.analyze_widened_0cfa(e), fp_widened,
         M.analysis.is_final_0cfa),
        ("kcfa1-widen", lambda e: M.analysis.analyze_widened(e, M.analysis.KCFAPolicy(1)),
         fp_widened, M.analysis.is_final_abstract),
        ("aext1-widen", lambda e: _widened_aext(M, e), fp_widened, M.extended.is_final_ext),
        ("pushdown-widen", lambda e: M.pushdown.reachable_pushdown_widened(e),
         fp_pushdown_widened, None),
    )

    def finals_of(w, final):
        if final is None:
            return set(w.graph.final_controls())
        return {s.ctrl for s in w.contexts if final(s)}

    def church_check(e, final, mono):
        def check(w):
            texts = {m.syntax.unparse(c) for c in finals_of(w, final) if hasattr(c, "label")}
            errs = [] if P.CHURCH_RESULT in texts else [f"{P.CHURCH_RESULT} not among finals"]
            if mono:
                errs += oracle.mono_flow_problems(e, _mono_pairs([w.store]))
            return errs
        return check

    def covers(e, final):
        def check(w):
            lam = oracle.concrete_final_lambda(e)
            labels = {getattr(c, "label", None) for c in finals_of(w, final)}
            if lam is not None and lam.label not in labels:
                return [f"concrete final {m.syntax.unparse(lam)} not among widened finals"]
            return []
        return check

    reqs = []
    ladder = [(f"mul{a}x{b}", P.church_direct(a, b)) for a, b in WIDEN_DIRECT]
    for name, text in ladder:
        e = parse(text)
        for tag, run, fp, final in runners:
            reqs.append(Request(f"{tag}/{name}", (lambda d, e: lambda: d(e))(run, e), fp,
                                church_check(e, final, tag == "0cfa-widen")))
    for prog in setup["term"]:
        for tag, run, fp, final in runners:
            reqs.append(Request(f"{tag}/{prog.name}", (lambda d, e: lambda: d(e))(run, prog.exp),
                                fp, covers(prog.exp, final)))
    return reqs


# ---------------------------------------------------------------------------
# cli-corpus
# ---------------------------------------------------------------------------

CORE_MACHINES = ("cek", "cesk", "ceskstar", "ceskt", "lk", "lk-opt", "lk-postponed",
                 "ext", "cm", "kcfa", "0cfa", "alk", "aext", "acm", "pushdown")
CONCRETE = ("cek", "cesk", "ceskstar", "ceskt", "lk", "lk-opt", "lk-postponed", "ext", "cm")
FORMATS = ("text", "json", "dot")
# Each terminating program runs on a rotating five of the fifteen machines,
# so thirty programs give every machine ten.
MACHINES_PER_TERM = 5

# Flag sets rotated over the programs, so every analysis mode is exercised.
# Widening runs only on the core analyses: a widened alk/aext/acm run on a
# small generated term can take a second, which would let one unlucky seed
# dominate the pass.
FLAG_ROTATION = {
    "cesk": ([], ["--gc"]),
    "ceskt": ([], ["--gc"]),
    "lk": ([], ["--gc"]),
    "kcfa": ([], ["--k", "1"], ["--k", "1", "--gc"], ["--widen"]),
    "0cfa": ([], ["--widen"], ["--gc"]),
    "alk": (["--k", "1"], ["--gc"]),
    "aext": (["--k", "1"], ["--k", "1", "--gc"]),
    "acm": (["--k", "1"], ["--gc"]),
    "pushdown": ([], ["--widen"]),
}


def _rows(fmt: str, out: str) -> list:
    """(control text, final?) per state, read back from any format."""
    rows = []
    if fmt == "json":
        return [(s["control"], s["final"]) for s in json.loads(out)["states"]]
    if fmt == "text":
        for line in out.splitlines():
            mt = re.match(r"^\d+: (.*)$", line)
            if mt:
                body = mt.group(1)
                final = body.endswith(" *")
                body = body[:-2] if final else body
                rows.append((body.split("  kont: ")[0].split("  time: ")[0], final))
        return rows
    for line in out.splitlines():
        mt = re.match(r'^  n(\d+) \[label="(.*)"(.*)\];$', line)
        if mt:
            label = mt.group(2).replace('\\"', '"').replace("\\\\", "\\")
            control = label.split(": ", 1)[1].rsplit(" <", 1)[0]
            rows.append((control, "doublecircle" in mt.group(3)))
    return rows


def cli_call(M, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = M.cli.run(argv)
        except SystemExit as ex:
            code = ex.code
    return code, out.getvalue()


def write_programs(workdir: Path, progs) -> dict:
    paths = {}
    for prog in progs:
        path = workdir / f"{prog.name}.scm"
        path.write_text(prog.text + "\n")
        paths[prog.name] = str(path)
    return paths


def cli_corpus(m: Modules, setup) -> list:
    M, oracle, paths = m, setup["oracle"], setup["paths"]
    reqs = []
    counter = [0]

    def add(rid, argv, check):
        reqs.append(Request(rid, (lambda argv: lambda: cli_call(M, argv))(argv), fp_cli, check))

    def next_format():
        counter[0] += 1
        return FORMATS[counter[0] % len(FORMATS)]

    def expect(codes, more=None):
        def check(result):
            code, out = result
            if code not in codes:
                return [f"exit code {code}, expected {codes}"]
            return more(out) if more else []
        return check

    def terminating_check(fmt, machine, e):
        def check(out):
            rows = _rows(fmt, out)
            finals = [c for c, f in rows if f]
            if machine in CONCRETE:
                if len(finals) != 1 or not oracle.value_ok(finals[0], e):
                    return [f"final {finals} does not match the substitution oracle"]
                return []
            lam = oracle.concrete_final_lambda(e)
            if m.syntax.unparse(lam) not in finals:
                return [f"concrete final {m.syntax.unparse(lam)} not among abstract finals"]
            return []
        return check

    def fuel_check(fmt):
        def check(out):
            rows = _rows(fmt, out)
            if len(rows) != CLI_DIVERGE_FUEL + 1 or any(f for _, f in rows):
                return [f"expected {CLI_DIVERGE_FUEL + 1} states and no final, got {len(rows)}"]
            return []
        return check

    for i, prog in enumerate(setup["term"]):
        for j in range(MACHINES_PER_TERM):
            machine = CORE_MACHINES[(MACHINES_PER_TERM * i + j) % len(CORE_MACHINES)]
            fmt = next_format()
            flags = FLAG_ROTATION.get(machine, ([],))
            flags = flags[(i + j) % len(flags)]
            argv = [machine, *flags, "--format", fmt, paths[prog.name]]
            add(f"{machine}{''.join(flags)}-{fmt}/{prog.name}", argv,
                expect((0,), terminating_check(fmt, machine, prog.exp)))
    for prog in setup["div"]:
        for machine in CALL_BY_VALUE:
            fmt = next_format()
            argv = [machine, "--fuel", str(CLI_DIVERGE_FUEL), "--format", fmt, paths[prog.name]]
            add(f"{machine}-fuel-{fmt}/{prog.name}", argv, expect((0,), fuel_check(fmt)))
    for group, machines in (("ext", ("ext", "aext")), ("sec", ("cm", "acm"))):
        for i, prog in enumerate(setup[group]):
            for machine in machines:
                fmt = next_format()
                flags = FLAG_ROTATION.get(machine, ([],))
                flags = flags[i % len(flags)]
                argv = [machine, *flags, "--format", fmt, paths[prog.name]]
                add(f"{machine}{''.join(flags)}-{fmt}/{prog.name}", argv, expect((0,)))
    for name, _text, flags, codes in P.HOSTILE:
        add(f"hostile/{name}", [*flags, paths[f"hostile-{name}"]], expect(codes))
    return reqs


# ---------------------------------------------------------------------------
# Set-up: generate, parse and write each workload's programs
# ---------------------------------------------------------------------------

# How many seeded programs of each corpus a workload uses.
CORPUS_SIZES = {
    "concrete-ladder": {"div": 5},
    "explore": {"term": 4, "div": 2, "ext": 2, "sec": 2},
    "widen-ladder": {"term": 4},
    "cli-corpus": {"term": 30, "div": 6, "ext": 6, "sec": 6},
}

REQUEST_LISTS = {
    "concrete-ladder": concrete_ladder,
    "explore": explore,
    "widen-ladder": widen_ladder,
    "cli-corpus": cli_corpus,
}


def generate(workload: str, seed: int, workdir: Path | None) -> dict:
    """Every program a workload needs, parsed; the command-line workload
    also writes them (and the hostile slice) to ``workdir``."""
    sizes = CORPUS_SIZES[workload]
    setup = {"term": [], "div": [], "ext": [], "sec": []}
    if "term" in sizes:
        setup["term"] = P.terminating(seed, sizes["term"])
    if "div" in sizes:
        setup["div"] = P.divergent(seed, sizes["div"], analysed=workload != "concrete-ladder")
    if "ext" in sizes:
        setup["ext"] = P.extended(seed, sizes["ext"])
    if "sec" in sizes:
        setup["sec"] = P.security(seed, sizes["sec"])
    if workload == "cli-corpus":
        progs = setup["term"] + setup["div"] + setup["ext"] + setup["sec"]
        setup["paths"] = write_programs(workdir, progs)
        for name, text, _flags, _codes in P.HOSTILE:
            path = workdir / f"hostile-{name}.scm"
            path.write_text(text + "\n")
            setup["paths"][f"hostile-{name}"] = str(path)
    return setup


def build(workload: str, m: Modules, setup: dict) -> list:
    setup["oracle"] = Oracle(m)
    return REQUEST_LISTS[workload](m, setup)
