"""Command-line front end.

Runs any machine or analysis in the package on a program file and emits
the trace or state graph as text, JSON, or a directed-graph description.

    aam <machine> [--k N] [--widen] [--gc] [--fuel N]
        [--format text|json|dot] [--annotate p,q,...] FILE

Each machine is a row of ``MACHINE_TABLE``: a language record, the reading
of its rules (concrete, with linked or stored frames, or abstract), and
the language's argument.

Exit codes: 0 on success (including fuel exhaustion and security failure),
1 on parse errors, 2 on configuration errors (bad flag combinations,
programs outside the machine's language, open programs), 3 when a concrete
machine gets stuck, 4 when an internal invariant is violated (a bug in the
package, reported in one line).

All emitted formats are byte-deterministic for a fixed configuration and
input: states appear in first-discovery order (the contexts of a widened
run in ``repr`` order) and every set is rendered sorted.

``_dispatch`` reads the row (``_parts``) and picks a search: a concrete
trace (``_trace``), a per-state graph (``analysis.explore_rules``), the
widened fixpoint (``_widened``) or the pushdown solver (``_pushdown``).  Every
search returns the same shape, ``(states, edges, initial, finals,
headline, extras)``, and ``_model`` alone turns it into output: the
machine's reading, not the state, decides how stores print and how value
flow is read.  A widened run prints the edges the fixpoint's last round
found and steps no context again.

Only JSON prints each state's environment and store.  A run's rows keep
them unrendered and ``emit_json`` renders them, so text and dot output,
which print the control, continuation and time, never pay for the stores.
``emit_json`` writes the document directly, byte for byte what
``json.dumps(obj, indent=2)`` would print, and renders each environment,
store and store entry once per call however many rows hold it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
import textwrap
from pathlib import Path
from typing import Callable

from .analysis import KCFAPolicy, explore_rules, strip_store, widened_fixpoint
from .extended import EXTENDED
from .gc import collect, collecting_step
from .inspection import SECURITY, annotate
from .lazy import LAZY, Computed
from .machines import (
    Ar, CESKtState, CORE, Closure, FRESH_POLICY, Fn, LINKED_POLICY, inject_cek, step_cek,
    trace_from,
)
from .pushdown import reachable_pushdown, reachable_pushdown_widened
from .store import ABSTRACT_STORE, Addr, InvariantError, sort_key
from .syntax import (
    Exp, FeatureError, Lam, ParseError, _ident_error, parse_program, permissions_used, unparse,
)

# One row per command-line name: (language, reading, language argument).
# The concrete readings fire a language's rules over exact stores with
# linked frames, with stored frames, or with stored frames and a clock;
# ``abstract`` fires them over abstract stores under ``KCFAPolicy(k)``, and
# ``mono`` does so at k = 0 and prints no environments or times.  ``cek``
# and ``pushdown`` are machines of their own over the core language.  A
# security row's argument is the permission universe of the program run.
MACHINE_TABLE = {
    "cek": (CORE, "cek", None),
    "cesk": (CORE, "linked", None),
    "ceskstar": (CORE, "stored", None),
    "ceskt": (CORE, "timed", None),
    "lk": (LAZY, "linked", "standard"),
    "lk-opt": (LAZY, "linked", "opt"),
    "lk-postponed": (LAZY, "linked", "postponed"),
    "ext": (EXTENDED, "timed", None),
    "cm": (SECURITY, "linked", None),
    "kcfa": (CORE, "abstract", None),
    "0cfa": (CORE, "mono", None),
    "alk": (LAZY, "abstract", "standard"),
    "acm": (SECURITY, "abstract", None),
    "aext": (EXTENDED, "abstract", None),
    "pushdown": (CORE, "pushdown", None),
}
# The flags each reading accepts.  The concrete readings are those with a
# step budget; ``--annotate`` goes with the security language instead.
ACCEPTS = {
    "cek": ("fuel",), "linked": ("fuel", "gc"), "stored": ("fuel", "gc"), "timed": ("fuel", "gc"),
    "abstract": ("k", "widen", "gc"), "mono": ("widen", "gc"), "pushdown": ("widen",),
}
CONTOURED = tuple(m for m, (_, reading, _) in MACHINE_TABLE.items() if "k" in ACCEPTS[reading])
ANNOTATABLE = tuple(m for m, (lang, _, _) in MACHINE_TABLE.items() if lang is SECURITY)


class ConfigError(Exception):
    pass


@dataclasses.dataclass
class Row:
    """One state, with what every format prints already rendered.  The
    environment and store stay raw: only JSON prints them, through
    ``_render_env`` and ``_render_store``."""

    id: int
    control: str
    env: object
    store: object
    kont: str
    time: str
    final: bool


@dataclasses.dataclass
class Model:
    """Renderer-ready view of one run, shared by all output formats.
    Every row's store prints one way: an ``abstract`` store maps each
    address to a set of storables, and ``show`` prints storables and
    frames."""

    machine: str
    k: int
    rows: list
    edges: list
    initial: int
    finals: list
    value_flow: dict
    headline: str
    extras: list
    abstract: bool
    show: Callable[[object], str]


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


# JSON is written directly, not built as a dict for ``json.dumps``, whose
# ``indent`` runs CPython's pure-Python encoder.  The text is byte for byte
# what ``json.dumps(obj, indent=2)`` prints: strings escaped by the same
# function, two-space indentation, ``{}`` and ``[]`` when empty.

_quote = json.encoder.encode_basestring_ascii


def _json_block(open_: str, members, close: str, depth: int) -> str:
    """A JSON object or array of already-rendered members, opened on a line
    indented ``depth`` levels of two spaces."""
    indent = "\n" + "  " * depth
    body = ("," + indent + "  ").join(members)
    return f"{open_}{indent}  {body}{indent}{close}" if body else open_ + close


class _JsonMemo:
    """What one ``emit_json`` call has rendered, keyed by object identity.
    Every keyed object is held by a row of the model being written, so no
    identity is reused while the memo lives."""

    def __init__(self):
        self.envs = {}  # id(env) -> text
        self.stores = {}  # id(store) -> text
        self.entries = {}  # (id(address), id(storable)) -> (sort key, text)
        self.addresses = {}  # id(address) -> (sort key, quoted repr)

    def address(self, a) -> tuple:
        got = self.addresses.get(id(a))
        if got is None:
            got = self.addresses[id(a)] = (sort_key(a), _quote(repr(a)))
        return got


def _render_env(env, memo) -> str:
    """The environment's JSON object text, variables in name order."""
    if not env:
        return "{}"
    text = memo.envs.get(id(env))
    if text is None:
        pairs = sorted(env.items(), key=lambda kv: kv[0])
        members = [f"{_quote(x)}: {_quote(repr(a))}" for x, a in pairs]
        text = memo.envs[id(env)] = _json_block("{", members, "}", 3)
    return text


def _render_store(store, model: Model, memo) -> str:
    """The store's JSON object text: each address's ``repr`` maps to the
    model's ``show`` of its storable, or for an abstract store to the
    sorted list of ``show`` of its values, entries in ``sort_key`` order of
    address.

    A store, an entry and an address are each rendered once per ``memo``,
    so a store not seen before only looks its entries up, sorts them by
    their kept keys and joins them."""
    if not store:
        return "{}"
    text = memo.stores.get(id(store))
    if text is not None:
        return text
    show = model.show
    parts = []
    for a, v in store.items():
        ident = (id(a), id(v))
        part = memo.entries.get(ident)
        if part is None:
            key, name = memo.address(a)
            if model.abstract:
                value = _json_block("[", map(_quote, sorted(show(w) for w in v)), "]", 4)
            else:
                value = _quote(show(v))
            part = memo.entries[ident] = (key, f"{name}: {value}")
        parts.append(part)
    parts.sort()
    text = _json_block("{", (entry for _key, entry in parts), "}", 3)
    memo.stores[id(store)] = text
    return text


def _mono_repr(v) -> str:
    """How the ``mono`` reading prints a storable or frame.  At k = 0 an
    environment is a function of the syntax it closes, so it is left out: a
    closure prints as its lambda, and ``Ar``/``Fn`` frames as ``Ar0``/``Fn0``."""
    if isinstance(v, Closure):
        return repr(v.lam)
    if isinstance(v, Ar):
        return f"Ar0({v.exp!r} {v.tail!r})"
    if isinstance(v, Fn):
        return f"Fn0({v.lam!r} {v.tail!r})"
    return repr(v)


def _model(args, run) -> Model:
    """The one assembly of a run's output from a search's ``(states, edges,
    initial, finals, headline, extras)``; edges and finals, any collection
    of indices, print sorted.  The machine's reading decides how every
    state prints: a reading without a step budget is abstract, ``mono``
    prints no environments or times and shows storables and frames through
    ``_mono_repr``, and value flow is read off an abstract run's distinct
    stores and off a concrete run's environments."""
    states, edges, initial, finals, headline, extras = run
    reading = MACHINE_TABLE[args.machine][1]
    abstract = "fuel" not in ACCEPTS[reading]
    mono = reading == "mono"
    show = _mono_repr if mono else repr
    finals = sorted(finals)
    final_set = set(finals)
    rows = []
    for i, s in enumerate(states):
        control = unparse(s.ctrl) if isinstance(s.ctrl, Exp) else repr(s.ctrl)
        kont = "" if s.kont is None else show(s.kont)
        time = "" if mono or getattr(s, "time", None) is None else repr(s.time)
        env = None if mono else s.env
        rows.append(Row(i, control, env, getattr(s, "store", None), kont, time, i in final_set))
    if abstract:
        flow = projection_flow({id(s.store): s.store for s in states}.values())
    else:
        flow = env_scan_flow(states)
    return Model(args.machine, args.k or 0, rows, sorted(edges), initial, finals, flow, headline,
                 extras, abstract, show)


def _value_lambda(w):
    if isinstance(w, (Closure, Computed)):
        return w.lam
    return w if isinstance(w, Lam) else None


def projection_flow(stores) -> dict:
    """Variable -> lambdas, read off abstract stores' binding addresses (contours dropped)."""
    flow: dict[str, set[str]] = {}
    for store in stores:
        for a, vs in store.items():
            var = getattr(a, "var", None)
            if var is None:
                continue
            for w in vs:
                lam = _value_lambda(w)
                if lam is not None:
                    flow.setdefault(var, set()).add(unparse(lam))
    return {x: sorted(vs) for x, vs in sorted(flow.items())}


def env_scan_flow(states) -> dict:
    """Variable -> lambdas, scanning environments and resolving addresses.
    Used for concrete machines, whose fresh addresses carry no variable."""
    flow: dict[str, set[str]] = {}
    for s in states:
        store = getattr(s, "store", None)
        for var, target in s.env.items():
            w = store.get(target) if isinstance(target, Addr) and store is not None else target
            lam = _value_lambda(w)
            if lam is not None:
                flow.setdefault(var, set()).add(unparse(lam))
    return {x: sorted(vs) for x, vs in sorted(flow.items())}


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _validate_flags(args) -> None:
    lang, reading, _arg = MACHINE_TABLE[args.machine]
    accepts = ACCEPTS[reading]
    if args.k is not None:
        if "k" not in accepts:
            raise ConfigError(f"--k applies only to {', '.join(CONTOURED)}")
        if args.k < 0:
            raise ConfigError("--k must be non-negative")
    if args.widen and "widen" not in accepts:
        raise ConfigError("--widen applies only to abstract machines")
    if args.gc:
        if "gc" not in accepts:
            raise ConfigError(f"--gc does not apply to {args.machine}")
        if args.widen:
            raise ConfigError("--gc cannot be combined with --widen")
    if args.fuel is not None:
        if "fuel" not in accepts:
            raise ConfigError("--fuel applies only to concrete machines")
        if args.fuel < 0:
            raise ConfigError("--fuel must be non-negative")
    if args.annotate is not None and lang is not SECURITY:
        raise ConfigError(f"--annotate applies only to {', '.join(ANNOTATABLE)}")


def _parts(args, program):
    """The row's initial state, its policy and its language argument.  A
    security row runs the program under ``--annotate``, with its
    permission universe as the argument; ``cek`` has no policy."""
    lang, reading, arg = MACHINE_TABLE[args.machine]
    e = program.exp
    if lang is SECURITY:
        granted = frozenset(p for p in (args.annotate or "").split(",") if p)
        for p in sorted(granted):
            error = _ident_error(p, "a permission")
            if error is not None:
                raise ConfigError(f"--annotate: {error}")
        if args.annotate is not None:
            e = annotate(e, granted)
        declared = program.permissions
        arg = permissions_used(e) | granted if declared is None else declared
    if reading == "cek":
        lang.check(e)
        return inject_cek(e), None, None
    if reading in ("abstract", "mono"):
        policy = KCFAPolicy(args.k or 0)
        return lang.inject(e, arg, policy.t0), policy, arg
    policy = LINKED_POLICY if reading == "linked" else FRESH_POLICY
    return lang.inject(e, arg, policy.t0 if reading == "timed" else None), policy, arg


def _trace(args, program) -> tuple[tuple, int]:
    """A concrete run, and its exit code: 3 if the machine got stuck."""
    lang, reading, _arg = MACHINE_TABLE[args.machine]
    initial, policy, arg = _parts(args, program)
    step = step_cek if reading == "cek" else lambda s: lang.step(s, policy, arg)
    if args.gc:
        initial = collect(initial)
        step = collecting_step(step)
    trace = trace_from(step, initial, 10000 if args.fuel is None else args.fuel)
    n = len(trace.states)
    if trace.outcome == "final":
        v = trace.value
        headline = f"Final: {unparse(v.lam) if isinstance(v, Closure) else repr(v)}"
    elif trace.outcome == "fail":
        headline = "Fail"
    elif trace.outcome == "fuel":
        headline = f"Out of fuel after {trace.steps} steps"
    else:
        headline = f"Stuck: {trace.reason}"
    edges = [(i, i + 1) for i in range(n - 1)]
    finals = [n - 1] if trace.outcome == "final" else []
    run = trace.states, edges, 0, finals, headline, [f"steps: {trace.steps}"]
    return run, 3 if trace.outcome == "stuck" else 0


def _pushdown(args, program) -> tuple:
    """The saturated pushdown graph, each node read as an untimed state
    whose continuation is the node's top frame."""
    if args.widen:
        widened = reachable_pushdown_widened(program.exp)
        graph, extras = widened.graph, [f"iterations: {widened.iterations}"]
    else:
        graph, extras = reachable_pushdown(program.exp), []
    states = [CESKtState(n.control.exp, n.control.env, n.control.store, n.top)
              for n in graph.nodes]
    summaries = sorted((i, j) for i, j, kind in graph.edges if kind == "summary")
    extras += [f"summary edge: {i} -> {j}" for i, j in summaries]
    headline = f"Saturated {len(states)} nodes, {len(graph.finals)} final"
    return states, graph.edge_pairs(), graph.initial, graph.finals, headline, extras


def _widened(args, program) -> tuple:
    """The widened fixpoint's contexts in ``repr`` order, each read with
    the global store."""
    lang = MACHINE_TABLE[args.machine][0]
    initial, policy, arg = _parts(args, program)
    system = widened_fixpoint(initial, lambda s: lang.rules(s, ABSTRACT_STORE, policy, arg))
    contexts = sorted(system.contexts, key=sort_key)
    index = {s: i for i, s in enumerate(contexts)}
    finals = [i for i, s in enumerate(contexts) if lang.final(s)]
    states = [dataclasses.replace(s, store=system.store) for s in contexts]
    edges = [(index[s], index[t]) for s, t in system.edges]
    headline = f"Widened to {len(states)} contexts, {len(finals)} final"
    extras = [f"iterations: {system.iterations}", f"store entries: {len(system.store)}"]
    return states, edges, index[strip_store(initial)], finals, headline, extras


def _dispatch(args, program) -> tuple[Model, int]:
    _validate_flags(args)
    lang, reading, _arg = MACHINE_TABLE[args.machine]
    code = 0
    if "fuel" in ACCEPTS[reading]:
        run, code = _trace(args, program)
    elif reading == "pushdown":
        run = _pushdown(args, program)
    elif args.widen:
        run = _widened(args, program)
    else:
        initial, policy, arg = _parts(args, program)
        graph = explore_rules(lang, initial, policy, arg, collecting=args.gc)
        headline = f"Explored {len(graph.states)} states, {len(graph.finals)} final"
        run = graph.states, graph.edges, graph.initial, graph.finals, headline, []
    return _model(args, run), code


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------


def emit_text(model: Model) -> str:
    lines = [f"machine: {model.machine}" + (f" k={model.k}" if model.machine in CONTOURED else "")]
    for row in model.rows:
        mark = " *" if row.final else ""
        kont = f"  kont: {row.kont}" if row.kont else ""
        time = f"  time: {row.time}" if row.time else ""
        lines.append(f"{row.id}: {row.control}{kont}{time}{mark}")
    if model.edges:
        lines.append("edges:")
        lines += [f"  {i} -> {j}" for i, j in model.edges]
    lines.append(model.headline)
    lines += model.extras
    if model.value_flow:
        lines.append("value flow:")
        lines += [f"  {x}: " + " | ".join(vs) for x, vs in model.value_flow.items()]
    return "\n".join(lines)


def emit_json(model: Model) -> str:
    """The run as one JSON document.  The states, most of it, are written
    as fragments into the list that is joined once at the end, so a store
    text shared by many rows is held once, in the memo, until that join."""
    memo = _JsonMemo()
    edges = [_json_block("[", (str(i), str(j)), "]", 2) for i, j in model.edges]
    flow = [
        f"{_quote(x)}: " + _json_block("[", map(_quote, vs), "]", 3)
        for x, vs in model.value_flow.items()
    ]
    summary = [
        f'"stateCount": {len(model.rows)}',
        '"finals": ' + _json_block("[", map(str, model.finals), "]", 2),
        '"valueFlow": ' + _json_block("{", flow, "}", 2),
    ]
    out = [f'{{\n  "machine": {_quote(model.machine)},\n  "k": {model.k},\n  "states": [']
    sep = "\n    {"
    for r in model.rows:
        out += (
            f'{sep}\n      "id": {r.id},\n      "control": {_quote(r.control)},\n      "env": ',
            _render_env(r.env, memo),
            ',\n      "store": ',
            _render_store(r.store, model, memo),
            f',\n      "kont": {_quote(r.kont)},\n      "time": {_quote(r.time)},'
            f'\n      "final": {"true" if r.final else "false"}\n    }}',
        )
        sep = ",\n    {"
    out += (
        "\n  ]" if model.rows else "]",
        ',\n  "edges": ',
        _json_block("[", edges, "]", 1),
        f',\n  "initial": {model.initial},\n  "summary": ',
        _json_block("{", summary, "}", 1),
        "\n}",
    )
    return "".join(out)


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def emit_dot(model: Model) -> str:
    lines = ["digraph aam {", "  rankdir=LR;"]
    for row in model.rows:
        head = row.kont.split("(")[0] if row.kont else "-"
        label = _dot_escape(f"{row.id}: {row.control} <{head}>")
        attrs = [f'label="{label}"']
        if row.final:
            attrs.append("shape=doublecircle")
        if row.id == model.initial:
            attrs.append("style=bold")
        lines.append(f"  n{row.id} [{', '.join(attrs)}];")
    for i, j in model.edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)


EMITTERS = {"text": emit_text, "json": emit_json, "dot": emit_dot}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help text between words only, so no machine name is split."""

    def _split_lines(self, text, width):
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aam",
        description="Run abstract machines and the analyses derived from them.",
        formatter_class=_HelpFormatter,
    )
    p.add_argument("machine", choices=MACHINE_TABLE, metavar="machine",
                   help="one of " + ", ".join(MACHINE_TABLE))
    p.add_argument("file", help="program file")
    p.add_argument("--k", type=int, default=None, metavar="N", help="contour depth")
    p.add_argument("--widen", action="store_true", help="single global store")
    p.add_argument("--gc", action="store_true", help="collect between steps")
    p.add_argument("--fuel", type=int, default=None, metavar="N", help="step budget (concrete)")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--annotate", default=None, metavar="p,q,...", help="wrap lambda bodies in frames")
    return p


# Built once: a parser keeps no state between ``parse_args`` calls.
_PARSER = build_parser()


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # A leading byte-order mark, which some editors write, is not part
        # of the program.
        text = Path(args.file).read_text(encoding="utf-8").removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    try:
        program = parse_program(text)
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 1
    try:
        model, code = _dispatch(args, program)
    except (ConfigError, FeatureError, ValueError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    except InvariantError as ex:
        print(f"internal error: invariant violated: {ex}", file=sys.stderr)
        return 4
    print(EMITTERS[args.format](model))
    return code


def main(argv=None) -> None:
    # A reader that closes the pipe early (``aam ... | head``) ends the
    # command the way it ends ``cat``, not with a BrokenPipeError traceback.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
