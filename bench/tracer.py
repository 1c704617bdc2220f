"""Outside-in layer tracer.

The package carries no instrumentation, so the tracer wraps it from the
outside: every public function of every ``aam`` module (and a few
``FrozenMap`` methods) is replaced by a timing wrapper at every place an
``aam`` module binds it.  That covers module globals (``from .store import
fresh_addr`` makes a second binding in each importing module), references
kept in module-level containers (``machines.MACHINES["ceskt"]`` holds
``step_ceskt`` itself, ``cli.EMITTERS`` holds the emitters) and function
defaults (``analysis.alpha_store`` holds ``alpha_storable_core``).
``uninstall`` puts every original back.

Each wrapper records a span: calls, and self time, which is the span's
duration minus the time of the wrapped calls made inside it.  A recursive
function such as ``unparse`` counts every level.  Hooks read counters off
arguments and results (graph sizes, store sizes, widening rounds) with
tracing paused, and the time they take is charged to no span.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("syntax", "store", "machines", "lazy", "extended", "inspection",
           "analysis", "pushdown", "gc", "cli")
FROZENMAP_METHODS = ("set", "update", "without", "restrict", "__hash__")


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = [0.0]  # child time of each open span; [0] is the root
        self._paused = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def paused(self):
        """Run bookkeeping untraced and charge its time to no span."""
        t0 = time.perf_counter()
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1
            self._stack[-1] += time.perf_counter() - t0

    def _wrap(self, name, fn, pre=None, post=None):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if pre is not None:
                with self.paused():
                    args, kwargs = pre(args, kwargs)
            stack.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                span = spans[name]
                span[0] += 1
                span[1] += dt - stack.pop()
                stack[-1] += dt
            if post is not None:
                with self.paused():
                    post(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- installing --------------------------------------------------------

    def _targets(self):
        """(qualified name, original) for every function to wrap."""
        mods = [sys.modules[f"aam.{m}"] for m in MODULES]
        for mod in mods:
            short = mod.__name__.split(".")[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    yield f"{short}.{name}", obj
        frozen_map = sys.modules["aam.store"].FrozenMap
        for name in FROZENMAP_METHODS:
            yield f"store.FrozenMap.{name}", vars(frozen_map)[name]

    def install(self):
        import aam.cli  # noqa: F401  (loads every module)

        hooks = _hooks(self)
        wrappers = {}
        for qual, fn in self._targets():
            pre, post = hooks.get(qual, (None, None))
            wrappers[id(fn)] = (fn, self._wrap(qual, fn, pre, post))

        def swap(v):
            hit = wrappers.get(id(v))
            return hit[1] if hit is not None and hit[0] is v else v

        mods = [m for n, m in sorted(sys.modules.items()) if n == "aam" or n.startswith("aam.")]
        functions = list(_all_functions(mods))
        frozen_map = sys.modules["aam.store"].FrozenMap
        for name in FROZENMAP_METHODS:
            self._set(frozen_map, name, swap(vars(frozen_map)[name]))
        for mod in mods:
            for name, val in list(vars(mod).items()):
                if swap(val) is not val:
                    self._set(mod, name, swap(val))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        new = _swap_item(item, swap)
                        if new is not item:
                            self._setitem(val, key, new)
        for fn in functions:
            if fn.__defaults__ and any(swap(d) is not d for d in fn.__defaults__):
                self._set(fn, "__defaults__", tuple(swap(d) for d in fn.__defaults__))
            if fn.__kwdefaults__ and any(swap(d) is not d for d in fn.__kwdefaults__.values()):
                self._set(fn, "__kwdefaults__", {k: swap(d) for k, d in fn.__kwdefaults__.items()})

    def _set(self, obj, name, value):
        self._undo.append((setattr, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def _setitem(self, d, key, value):
        self._undo.append((dict.__setitem__, d, key, d[key]))
        d[key] = value

    def uninstall(self):
        while self._undo:
            op, obj, key, old = self._undo.pop()
            op(obj, key, old)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _swap_item(item, swap):
    """A container entry with originals replaced: the entry itself, or a
    tuple such as ``(inject_ceskt, step_ceskt)``."""
    if isinstance(item, tuple):
        new = tuple(swap(x) for x in item)
        return item if all(a is b for a, b in zip(new, item)) else new
    return swap(item)


def _all_functions(mods):
    """Every function defined in the package, including methods."""
    seen = set()
    for mod in mods:
        for obj in vars(mod).values():
            cands = [obj]
            if inspect.isclass(obj) and obj.__module__.startswith("aam"):
                cands = list(vars(obj).values())
            for f in cands:
                if inspect.isfunction(f) and f.__module__.startswith("aam") and id(f) not in seen:
                    seen.add(id(f))
                    yield f


# ---------------------------------------------------------------------------
# Counters read at layer boundaries
# ---------------------------------------------------------------------------


def _store_len(state) -> int:
    store = getattr(state, "store", None)
    if store is None:
        control = getattr(state, "control", None)  # pushdown successors
        store = getattr(control, "store", None)
    return len(store) if store is not None else 0


def _successor_states(out):
    if isinstance(out, list):
        return [t[0] if isinstance(t, tuple) else t for t in out]
    state = getattr(out, "state", None)  # Next(state)
    return [] if state is None else [state]


def _hooks(tr: Tracer) -> dict:
    c, mx = tr.counters, tr.maxima

    def peak(states):
        for s in states:
            n = _store_len(s)
            if n > mx["store.peak_entries"]:
                mx["store.peak_entries"] = n

    def step_post(args, out):
        peak(_successor_states(out))

    def counted(successors, calls, outputs):
        def succ(s):
            out = successors(s)
            with tr.paused():
                c[calls] += 1
                c[outputs] += len(out)
            return out
        return succ

    def explore_pre(args, kwargs):
        args = list(args)
        if len(args) > 1:
            args[1] = counted(args[1], "analysis.expansions", "analysis.successors")
        else:
            kwargs["successors"] = counted(kwargs["successors"], "analysis.expansions",
                                           "analysis.successors")
        return tuple(args), kwargs

    def explore_post(args, g):
        c["analysis.states"] += len(g.states)
        c["analysis.edges"] += len(g.edges)

    def widen_pre(args, kwargs):
        """Count successor calls, and the useful ones: those that found a
        context or a store fact not seen before in this fixpoint."""
        import dataclasses

        from aam.analysis import EMPTY_ASTORE

        args = list(args)
        successors = args[1] if len(args) > 1 else kwargs.pop("successors")
        seen_contexts, facts = set(), {}

        def succ(s):
            out = successors(s)
            with tr.paused():
                useful = False
                for t in out:
                    ctx = dataclasses.replace(t, store=EMPTY_ASTORE)
                    if ctx not in seen_contexts:
                        seen_contexts.add(ctx)
                        useful = True
                    for addr, vals in t.store.items():
                        known = facts.get(addr, frozenset())
                        if not vals <= known:
                            facts[addr] = known | vals
                            useful = True
                c["analysis.widen_successor_calls"] += 1
                c["analysis.widen_useful_calls"] += useful
            return out

        if len(args) > 1:
            args[1] = succ
        else:
            kwargs["successors"] = succ
        return tuple(args), kwargs

    def widen_post(args, w):
        c["analysis.widen_rounds"] += w.iterations
        peak([w])

    def pushdown_post(args, out):
        graph = getattr(out, "graph", out)
        c["pushdown.nodes"] += len(graph.nodes)
        c["pushdown.edges"] += len(graph.edges)
        if graph is not out:
            c["pushdown.widen_rounds"] += out.iterations
            peak([out])

    def collect_post(args, out):
        c["gc.removed_addrs"] += len(args[0].store) - len(out.store)

    def emit_post(args, out):
        c["cli.output_bytes"] += len(out.encode()) + 1  # print adds a newline

    hooks = {
        "analysis.explore_states": (explore_pre, explore_post),
        "analysis.widened_fixpoint": (widen_pre, widen_post),
        "pushdown.reachable_pushdown": (None, pushdown_post),
        "pushdown.reachable_pushdown_widened": (None, pushdown_post),
        "gc.collect": (None, collect_post),
        "cli.emit_text": (None, emit_post),
        "cli.emit_json": (None, emit_post),
        "cli.emit_dot": (None, emit_post),
    }
    for mod in ("machines", "lazy", "extended", "inspection", "analysis", "pushdown"):
        for name, obj in vars(sys.modules[f"aam.{mod}"]).items():
            if name.startswith("step_") and inspect.isfunction(obj):
                hooks[f"{mod}.{name}"] = (None, step_post)
    return hooks


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CLI_OWN = ("cli.emit_text", "cli.emit_json", "cli.emit_dot", "cli.projection_flow",
           "cli.env_scan_flow")

# metric group -> predicate over qualified function names
GROUPS = {
    "syntax.parse_program": lambda q: q in ("syntax.parse_program", "syntax.parse"),
    "syntax.unparse": lambda q: q == "syntax.unparse",
    "syntax.free_vars": lambda q: q == "syntax.free_vars",
    "store.fresh_addr": lambda q: q == "store.fresh_addr",
    "store.FrozenMap.set": lambda q: q == "store.FrozenMap.set",
    "store.FrozenMap.__hash__": lambda q: q == "store.FrozenMap.__hash__",
    "store.astore_add": lambda q: q == "store.astore_add",
    "store.astore_join": lambda q: q == "store.astore_join",
    "store.astore_get": lambda q: q == "store.astore_get",
    "store.sort_key": lambda q: q == "store.sort_key",
    "machines.step": lambda q: q.startswith("machines.step_"),
    "machines.trace_from": lambda q: q == "machines.trace_from",
    "lazy.step": lambda q: q.startswith("lazy.step_"),
    "extended.step": lambda q: q.startswith("extended.step_"),
    "inspection.step": lambda q: q.startswith("inspection.step_"),
    "analysis.step": lambda q: q.startswith("analysis.step_"),
    "analysis.explore_states": lambda q: q == "analysis.explore_states",
    "analysis.widened_fixpoint": lambda q: q == "analysis.widened_fixpoint",
    "pushdown.step": lambda q: q.startswith("pushdown.step_"),
    "pushdown.saturate": lambda q: q.startswith("pushdown.reachable_pushdown"),
    "gc.collect": lambda q: q == "gc.collect",
    "gc.gc_reachable": lambda q: q == "gc.gc_reachable",
    "cli.run": lambda q: q.startswith("cli.") and q not in CLI_OWN,
    "cli.emit": lambda q: q.startswith("cli.emit_"),
    "cli.flow": lambda q: q in ("cli.projection_flow", "cli.env_scan_flow"),
}

# (metric, unit, better): every per-layer metric the traced run reports.
PER_LAYER = [
    ("syntax.parse_program.self_s", "s", "lower"),
    ("syntax.unparse.calls", "count", "lower"),
    ("syntax.unparse.self_s", "s", "lower"),
    ("syntax.free_vars.calls", "count", "lower"),
    ("syntax.free_vars.self_s", "s", "lower"),
    ("store.fresh_addr.calls", "count", "lower"),
    ("store.fresh_addr.self_s", "s", "lower"),
    ("store.FrozenMap.set.self_s", "s", "lower"),
    ("store.FrozenMap.__hash__.calls", "count", "lower"),
    ("store.FrozenMap.__hash__.self_s", "s", "lower"),
    ("store.astore_add.calls", "count", "lower"),
    ("store.astore_add.self_s", "s", "lower"),
    ("store.astore_join.calls", "count", "lower"),
    ("store.astore_join.self_s", "s", "lower"),
    ("store.astore_get.calls", "count", "lower"),
    ("store.sort_key.calls", "count", "lower"),
    ("store.sort_key.self_s", "s", "lower"),
    ("store.peak_entries", "count", "lower"),
    ("machines.step.calls", "count", "lower"),
    ("machines.step.self_s", "s", "lower"),
    ("machines.trace_from.self_s", "s", "lower"),
    ("lazy.step.calls", "count", "lower"),
    ("lazy.step.self_s", "s", "lower"),
    ("extended.step.calls", "count", "lower"),
    ("extended.step.self_s", "s", "lower"),
    ("inspection.step.calls", "count", "lower"),
    ("inspection.step.self_s", "s", "lower"),
    ("analysis.step.calls", "count", "lower"),
    ("analysis.step.self_s", "s", "lower"),
    ("analysis.explore_states.self_s", "s", "lower"),
    ("analysis.states", "count", "lower"),
    ("analysis.edges", "count", "lower"),
    ("analysis.fanout", "ratio", "lower"),
    ("analysis.widened_fixpoint.self_s", "s", "lower"),
    ("analysis.widen_rounds", "count", "lower"),
    ("analysis.widen_successor_calls", "count", "lower"),
    ("analysis.widen_useful_ratio", "ratio", "higher"),
    ("pushdown.step.calls", "count", "lower"),
    ("pushdown.step.self_s", "s", "lower"),
    ("pushdown.saturate.self_s", "s", "lower"),
    ("pushdown.nodes", "count", "lower"),
    ("pushdown.edges", "count", "lower"),
    ("pushdown.widen_rounds", "count", "lower"),
    ("gc.collect.calls", "count", "lower"),
    ("gc.collect.self_s", "s", "lower"),
    ("gc.gc_reachable.self_s", "s", "lower"),
    ("gc.removed_addrs", "count", "higher"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.flow.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(tr: Tracer, overhead_s: float) -> dict:
    """Every PER_LAYER metric, from one traced pass."""
    values = {}
    for group, member in GROUPS.items():
        calls = sum(v[0] for q, v in tr.spans.items() if member(q))
        self_s = sum(v[1] for q, v in tr.spans.items() if member(q))
        values[f"{group}.calls"] = calls
        values[f"{group}.self_s"] = self_s
    c = tr.counters
    values.update({k: c[k] for k in ("analysis.states", "analysis.edges",
                                     "analysis.widen_rounds", "analysis.widen_successor_calls",
                                     "pushdown.nodes", "pushdown.edges", "pushdown.widen_rounds",
                                     "gc.removed_addrs", "cli.output_bytes")})
    values["analysis.fanout"] = c["analysis.successors"] / max(c["analysis.expansions"], 1)
    values["analysis.widen_useful_ratio"] = (
        c["analysis.widen_useful_calls"] / max(c["analysis.widen_successor_calls"], 1))
    values["store.peak_entries"] = tr.maxima["store.peak_entries"]
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
